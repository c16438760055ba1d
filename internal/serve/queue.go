// The dispatcher's two queues: each tenant's FIFO of admitted requests,
// and the server's heap of the tenants that have any.
package serve

// ring is a tenant's FIFO of admitted, undispatched requests. It grows
// by doubling until it holds the tenant's deepest backlog (admission
// bounds that by QueueCap) and is reused from then on.
type ring struct {
	buf  []*pending
	head int // index of the oldest request
	n    int // requests held
}

// front returns the oldest request; the ring must not be empty.
func (q *ring) front() *pending { return q.buf[q.head] }

func (q *ring) push(p *pending) {
	if q.n == len(q.buf) {
		grown := make([]*pending, max(4, 2*len(q.buf)))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = p
	q.n++
}

// pop removes and returns the oldest request, clearing its slot so the
// ring does not keep a dispatched request alive.
func (q *ring) pop() *pending {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return p
}

// before reports whether a's head request dispatches before b's: lower
// start tag first, then lower admission sequence. Sequences are unique,
// so no two tenants tie.
func before(a, b *tenant) bool {
	p, q := a.queue.front(), b.queue.front()
	return p.start < q.start || (p.start == q.start && p.seq < q.seq)
}

// readyPush adds a tenant whose queue just went from empty to one
// request. Caller holds s.mu.
func (s *Server) readyPush(t *tenant) {
	h := append(s.ready, t)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !before(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	s.ready = h
}

// readyFixRoot restores heap order after the root tenant's head request
// was popped: the tenant leaves the heap if that was its last request,
// and otherwise sinks to where its next one (a later tag or sequence)
// belongs. Caller holds s.mu.
func (s *Server) readyFixRoot() {
	h := s.ready
	if h[0].queue.n == 0 {
		last := len(h) - 1
		h[0], h[last] = h[last], nil
		h = h[:last]
		s.ready = h
	}
	for i := 0; ; {
		kid := 2*i + 1
		if kid >= len(h) {
			return
		}
		if r := kid + 1; r < len(h) && before(h[r], h[kid]) {
			kid = r
		}
		if !before(h[kid], h[i]) {
			return
		}
		h[i], h[kid] = h[kid], h[i]
		i = kid
	}
}
