//go:build unix && !race

package rmem

import "syscall"

// offHeap reports that this build maps regions outside the Go heap.
const offHeap = true

// reserve maps n bytes of anonymous memory outside the Go heap, reporting
// true: the pages become resident only when first written, as a registered
// region's do, and the collector neither scans nor counts them. A mapping
// the kernel refuses falls back to the heap, reporting false.
func reserve(n int) ([]byte, bool) {
	if n == 0 {
		return nil, false
	}
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, n), false
	}
	return b, true
}

// unreserve returns a mapping reserve made to the kernel.
func unreserve(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic("rmem: munmap: " + err.Error()) // b is a whole mapping reserve made
	}
}
