package memory

// ring is a double-ended queue on a power-of-two circular buffer, the
// module's one queue mechanism: the input queue pushes at the back,
// pops at the front and puts replayed waiters back at the front; the
// output queue uses the first two. The buffer doubles when full and
// is never shrunk or rebuilt, so a warm queue allocates nothing however
// long the run. Popped slots are not cleared: element types hold no
// pointers. The zero value is an empty queue.
type ring[T any] struct {
	buf  []T // len is 0 or a power of two
	head int // index of the front element
	n    int // elements queued
}

func (r *ring[T]) len() int { return r.n }

// reset empties the queue and keeps the buffer.
func (r *ring[T]) reset() { r.head, r.n = 0, 0 }

// at returns the i-th element from the front (0 <= i < len).
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)&(len(r.buf)-1)] }

// items returns a copy of the queue, front first (nil when empty).
func (r *ring[T]) items() []T {
	if r.n == 0 {
		return nil
	}
	out := make([]T, r.n)
	for i := range out {
		out[i] = r.at(i)
	}
	return out
}

func (r *ring[T]) pushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *ring[T]) pushFront(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = v
	r.n++
}

// popFront removes and returns the front element; the queue must be
// non-empty.
func (r *ring[T]) popFront() T {
	v := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// grow doubles the buffer, unwrapping the contents to start at 0.
func (r *ring[T]) grow() {
	nb := make([]T, max(2*len(r.buf), 8))
	k := copy(nb, r.buf[r.head:])
	copy(nb[k:], r.buf[:r.head])
	r.buf, r.head = nb, 0
}
