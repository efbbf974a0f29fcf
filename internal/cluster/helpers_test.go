package cluster

import (
	"bytes"
	"log/slog"
	"sync"
	"testing"

	"repro/internal/obslog"
)

// tWriter routes log lines into the test log.
type tWriter struct{ t *testing.T }

func (w tWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// testLogger is silent by default and verbose under -v, so membership
// churn in the kill tests is debuggable without polluting normal runs.
func testLogger(t *testing.T) *slog.Logger {
	if testing.Verbose() {
		return obslog.New(tWriter{t: t}, slog.LevelDebug)
	}
	return obslog.Nop()
}

// logBuffer collects log lines for assertions; its lock orders the
// loggers' writes before the test's read.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
