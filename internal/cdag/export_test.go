package cdag

// Extra is the protection edges' type, for the external tests.
const Extra = extra
