//go:build purego

package rs

// packedKernels is false under the purego build tag: every syndrome
// computation, encode and interleaved decode runs the byte-at-a-time
// reference loops, making this build the pinned baseline the default build
// is differentially tested against.
const packedKernels = false
