package serve

import (
	"context"
	"sync"
)

// flightGroup collapses concurrent identical requests onto one computation:
// the first request for a key becomes the leader and runs the work inline;
// requests that arrive while it is in flight become followers and share the
// leader's finished response bytes. The entry is forgotten as soon as the
// leader finishes — this is request coalescing, not a response cache; a later
// identical request hits the snapshot store instead.
//
// The leader runs the work inline, on its own request's goroutine, but the
// work runs under the server's base context rather than the request's, so
// no caller abandoning the wait (its deadline, a dropped connection) cancels
// work other requests are waiting on.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

type flight struct {
	done chan struct{}
	resp *response
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// do runs fn once per concurrent set of callers with the same key. The
// leader's call runs fn inline and always completes; a follower waits for the
// shared response but gives up when its ctx ends, returning ctx.Err().
// leader reports which role this call played (metrics count followers).
func (g *flightGroup) do(ctx context.Context, key string, fn func() *response) (resp *response, leader bool, err error) {
	g.mu.Lock()
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
			return f.resp, false, nil
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	defer func() {
		// Forget the key before publishing: a request arriving after done is
		// closed must start a fresh flight (and hit the store), not read a
		// stale response forever.
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(f.done)
	}()
	f.resp = fn()
	return f.resp, true, nil
}
