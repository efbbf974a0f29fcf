package ctrlplane

import (
	"net/http"
	"time"
)

// serverTimeouts bounds how long a client may hold a connection of a
// control-plane service without making progress.
type serverTimeouts struct {
	readHeader, read, idle time.Duration
}

// The values every deployed service runs with. Headers of a loopback or
// LAN peer arrive in one segment, so 5 s only ever cuts off a client that
// stopped mid-request (slowloris); 30 s covers the headers plus a body at
// the 1 MiB decodeBody cap over a link of 300 kb/s. Idle is minutes, not
// seconds: the orchestrator's kept-alive southbound connections must
// outlive the gap between epochs at any sane -epoch-every (a slower cadence
// only costs one re-dial per controller per epoch). There is deliberately
// no WriteTimeout: it would also bound the handler, and POST /epoch lasts
// as long as the round's solve does.
var defaultTimeouts = serverTimeouts{
	readHeader: 5 * time.Second,
	read:       30 * time.Second,
	idle:       5 * time.Minute,
}

// NewServer builds the http.Server every control-plane binary serves a
// handler with, so none of them listens without read and idle timeouts.
func NewServer(addr string, h http.Handler) *http.Server {
	return defaultTimeouts.server(addr, h)
}

func (t serverTimeouts) server(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: t.readHeader,
		ReadTimeout:       t.read,
		IdleTimeout:       t.idle,
	}
}
