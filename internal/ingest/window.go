package ingest

// sequenced is an item carrying its position in a per-input sequence
// space (event seqs, journal-line seqs, send marks).
type sequenced interface{ sequence() uint64 }

// window is a FIFO of seq-ordered items awaiting a cumulative ack: the
// emitter's retransmit buffers and its send-time marks. It is a ring over
// one backing array, so every operation is O(1) per item: push writes
// one slot, ack advances the head past the covered prefix and zeroes the
// vacated slots (an acked *SessionRecord is not kept alive by its slot).
// The array grows only when the ring is full — doubling up to limit,
// then to exactly the size needed — so in steady state nothing is
// allocated and the capacity never exceeds limit or the most items ever
// held or reserved at once, whichever is larger. Reserving a whole batch
// before pushing it keeps growth past limit to one step.
type window[T sequenced] struct {
	buf   []T
	head  int // slot of the oldest item
	n     int // live items
	limit int // growth stops doubling here (the emitter's MaxUnacked)
}

func (w *window[T]) len() int { return w.n }

// at returns the i-th oldest item.
func (w *window[T]) at(i int) *T {
	j := w.head + i
	if j >= len(w.buf) {
		j -= len(w.buf)
	}
	return &w.buf[j]
}

// segments returns the items, oldest first, as at most two slices of
// the ring. They alias the window: valid until the next push or ack.
func (w *window[T]) segments() (a, b []T) {
	end := w.head + w.n
	if end <= len(w.buf) {
		return w.buf[w.head:end], nil
	}
	return w.buf[w.head:], w.buf[:end-len(w.buf)]
}

// push appends v as the newest item.
func (w *window[T]) push(v T) {
	w.reserve(1)
	*w.at(w.n) = v
	w.n++
}

// reserve makes room for k more items.
func (w *window[T]) reserve(k int) {
	need := w.n + k
	if need <= len(w.buf) {
		return
	}
	size := min(max(2*len(w.buf), 16), w.limit)
	buf := make([]T, max(size, need))
	a, b := w.segments()
	copy(buf[copy(buf, a):], b)
	w.buf, w.head = buf, 0
}

// ack drops every leading item whose sequence is at or below seq and
// returns how many it dropped.
func (w *window[T]) ack(seq uint64) int {
	var zero T
	d := 0
	for w.n > 0 && w.buf[w.head].sequence() <= seq {
		w.buf[w.head] = zero
		w.head++
		if w.head == len(w.buf) {
			w.head = 0
		}
		w.n--
		d++
	}
	return d
}

// reset drops every item, keeping the backing array.
func (w *window[T]) reset() {
	clear(w.buf)
	w.head, w.n = 0, 0
}
