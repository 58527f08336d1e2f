package regalloc

// The corpus differential lives in package regalloc_test (it needs
// internal/driver and internal/livermore, which import this package);
// these are its doors to the oracle and to the degree-checking driver.
var (
	ReferenceAllocate = referenceAllocate
	SteppedAllocate   = steppedAllocate
)
