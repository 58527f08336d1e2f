package regalloc

// The corpus differential lives in package regalloc_test (it needs
// internal/driver and internal/livermore, which import this package);
// this is its door to the degree-checking driver.
var SteppedAllocate = steppedAllocate
