// Package core keeps the three names the benchmark module (bench/)
// still imports, as aliases of package marion, which owns the code
// generator. ROADMAP item 2 moves bench/ onto package marion and
// deletes this package.
package core

import "marion"

// CodeGenerator is marion.CodeGenerator.
type CodeGenerator = marion.CodeGenerator

// Result is marion.Result.
type Result = marion.Result

// New is marion.New.
func New(target string, strat marion.Strategy) (*CodeGenerator, error) {
	return marion.New(target, strat)
}
