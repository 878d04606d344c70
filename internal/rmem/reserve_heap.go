//go:build !unix || race

package rmem

// offHeap reports that this build keeps regions on the Go heap.
const offHeap = false

// reserve allocates n bytes on the Go heap, reporting that it mapped
// nothing. Under the race detector, which shadows only the heap, this
// keeps every region byte visible to it.
func reserve(n int) ([]byte, bool) { return make([]byte, n), false }

// unreserve is never called: reserve maps nothing.
func unreserve([]byte) {}
