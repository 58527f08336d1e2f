package sched

// Apply is apply, for the external tests.
var Apply = apply
