//go:build !purego

package rs

// packedKernels selects the word-parallel syndrome evaluator and the
// packed LFSR encoder for codes with at most synLanes parity symbols.
// Constant, so the dispatch branches fold away at compile time.
const packedKernels = true
