package strategy

// The scratch-reuse test lives in package strategy_test (it needs
// internal/driver and internal/livermore, which import this package);
// this is its door to Apply with a scratch of the test's choosing.
var ApplyOnScratch = apply
