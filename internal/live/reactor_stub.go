//go:build !linux

package live

// Reactor stub for platforms without epoll. ListenAndServe asks for a
// reactor, newReactor declines, and the server falls back cleanly to the
// goroutine-per-connection transport — same Conn semantics, just a
// per-session goroutine cost. The type exists so the Server struct
// compiles unchanged.

import (
	"fmt"
	"net"
)

type reactor struct{}

func newReactor(s *Server) (*reactor, error) {
	return nil, fmt.Errorf("live: reactor transport requires epoll (linux)")
}

func (r *reactor) stop()     {}
func (r *reactor) shutdown() {}

// attachReactor is unreachable on this platform (newReactor never
// succeeds); close the connection defensively if it is ever called.
func (s *Server) attachReactor(r *reactor, c net.Conn) {
	c.Close()
}
