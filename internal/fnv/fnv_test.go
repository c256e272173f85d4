package fnv

import (
	"encoding/binary"
	stdfnv "hash/fnv"
	"math"
	"testing"
)

// TestMatchesStdlib: every mixer equals the standard library's FNV-1a 64
// over the same byte stream.
func TestMatchesStdlib(t *testing.T) {
	want := stdfnv.New64a()
	var b [8]byte
	want.Write([]byte("abc"))
	want.Write([]byte("field|"))
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(-0.5))
	want.Write(b[:])
	n := int64(-3)
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	want.Write(b[:])
	want.Write([]byte{0xff})
	got := New().Bytes([]byte("abc")).Field("field").F64(-0.5).Int(-3).Byte(0xff)
	if uint64(got) != want.Sum64() {
		t.Fatalf("hash %x, want %x", uint64(got), want.Sum64())
	}
	if New().Str("abc") != New().Bytes([]byte("abc")) {
		t.Fatal("Str and Bytes disagree")
	}
	if New().Hex() != "cbf29ce484222325" {
		t.Fatalf("empty hash %s", New().Hex())
	}
}
