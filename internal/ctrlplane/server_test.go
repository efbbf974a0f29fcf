package ctrlplane

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServerTimeouts drives a server built by the constructor cmd/ovnes and
// cmd/slicemgr use (with test-sized timeouts): a client that stalls in the
// middle of its request line is disconnected at the header timeout, while a
// healthy keep-alive client on the same server completes 50 requests on its
// one connection, pauses between them included.
func TestServerTimeouts(t *testing.T) {
	for _, d := range []time.Duration{defaultTimeouts.readHeader, defaultTimeouts.read, defaultTimeouts.idle} {
		if d <= 0 {
			t.Fatalf("a deployed timeout is unset: %+v", defaultTimeouts)
		}
	}
	if srv := NewServer("127.0.0.1:0", http.NotFoundHandler()); srv.ReadHeaderTimeout != defaultTimeouts.readHeader ||
		srv.ReadTimeout != defaultTimeouts.read || srv.IdleTimeout != defaultTimeouts.idle {
		t.Fatalf("NewServer dropped a timeout: %+v", srv)
	}

	const header = 200 * time.Millisecond
	srv := serverTimeouts{readHeader: header, read: time.Second, idle: 2 * time.Second}.server("",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, map[string]string{"path": r.URL.Path})
		}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-served
	})

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	if _, err := io.WriteString(slow, "POST /epo"); err != nil {
		t.Fatal(err)
	}
	cut := make(chan error, 1)
	go func() {
		slow.SetReadDeadline(start.Add(10 * header)) //nolint:errcheck // a TCP conn takes deadlines
		_, err := io.ReadAll(slow)                   // nil once the server has closed the connection
		cut <- err
	}()

	// The healthy client works while the slow one is still holding its
	// connection open.
	healthy, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	rd := bufio.NewReader(healthy)
	for i := 0; i < 50; i++ {
		if i%20 == 9 {
			time.Sleep(header + header/2) // idle longer than the header timeout
		}
		if _, err := fmt.Fprintf(healthy, "GET /r%d HTTP/1.1\r\nHost: x\r\n\r\n", i); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		resp, err := http.ReadResponse(rd, nil)
		if err != nil {
			t.Fatalf("request %d: the keep-alive connection was cut: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // a short body fails the next ReadResponse
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %s", i, resp.Status)
		}
	}

	if err := <-cut; err != nil {
		t.Fatalf("the stalled client was still connected %v after its first byte (header timeout %v): %v", 10*header, header, err)
	}
}
