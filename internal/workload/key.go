package workload

import "fmt"

// Key formats key index i as a fixed-width printable key of the given byte
// length, e.g. Key(42, 30) for the paper's 30-byte Redis keys. Panics if
// width is too small to hold the formatted index.
func Key(i uint64, width int) []byte {
	s := fmt.Sprintf("key%0*d", width-3, i)
	if len(s) != width {
		panic(fmt.Sprintf("workload: key %d does not fit width %d", i, width))
	}
	return []byte(s)
}

// Value returns a deterministic printable payload of the given size for key
// index i. Successive writes to the same key produce the same value, which
// makes duplicate-execution bugs in tests easy to detect by comparing
// version numbers instead of contents.
func Value(i uint64, size int) []byte {
	v := make([]byte, size)
	for j := range v {
		v[j] = byte('A' + (int(i)+j)%26)
	}
	return v
}
