// Package fnv is the 64-bit FNV-1a hash behind every digest and site hash
// in this module: evaluator cache shards and fault sites, the serving
// config, override and model-version digests, and bundle grammar and
// posterior fingerprints. Hash is a value type, so hashes compose by
// method chaining without allocating.
package fnv

import (
	"math"
	"strconv"
)

// Hash is a running 64-bit FNV-1a hash; every method returns the hash with
// more input mixed in.
type Hash uint64

const prime = 1099511628211

// New returns the empty hash (the FNV-1a offset basis).
func New() Hash { return 14695981039346656037 }

// Byte mixes one byte.
func (h Hash) Byte(c byte) Hash { return (h ^ Hash(c)) * prime }

// Str mixes the bytes of s.
func (h Hash) Str(s string) Hash {
	for i := 0; i < len(s); i++ {
		h = h.Byte(s[i])
	}
	return h
}

// Bytes mixes b.
func (h Hash) Bytes(b []byte) Hash {
	for _, c := range b {
		h = h.Byte(c)
	}
	return h
}

// Field mixes s and a '|' terminator, so consecutive fields cannot run
// into each other.
func (h Hash) Field(s string) Hash { return h.Str(s).Byte('|') }

// U64 mixes v as eight little-endian bytes.
func (h Hash) U64(v uint64) Hash {
	for i := 0; i < 8; i++ {
		h = h.Byte(byte(v))
		v >>= 8
	}
	return h
}

// F64 mixes the bit pattern of v.
func (h Hash) F64(v float64) Hash { return h.U64(math.Float64bits(v)) }

// Int mixes v as a two's-complement 64-bit integer.
func (h Hash) Int(v int) Hash { return h.U64(uint64(int64(v))) }

// Hex renders the hash in lower-case hexadecimal without leading zeros.
func (h Hash) Hex() string { return strconv.FormatUint(uint64(h), 16) }
