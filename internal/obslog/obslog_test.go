package obslog

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestEventRendering pins the line shape the check scripts grep: the
// message quoted after level=, then the logger's context, then the
// record's fields in call order.
func TestEventRendering(t *testing.T) {
	var buf bytes.Buffer
	log := New(&buf, slog.LevelDebug).With("component", "coordinator")
	log.Info("worker joined",
		"worker", "w1",
		"spaced", "a b",
		"domains", 3,
		"seq", uint64(42),
		"score", 0.125,
		"after", 1500*time.Millisecond,
		"err", errors.New("boom"))

	want := regexp.MustCompile(`^time=\S+ level=INFO msg="worker joined" component=coordinator worker=w1 spaced="a b" domains=3 seq=42 score=0.125 after=1.5s err=boom` + "\n$")
	if got := buf.String(); !want.MatchString(got) {
		t.Fatalf("rendered line:\n got: %q\nwant: %s", got, want)
	}
}

func TestLevelGate(t *testing.T) {
	var buf bytes.Buffer
	log := New(&buf, slog.LevelWarn)
	log.Debug("dropped", "k", "v")
	log.Info("dropped too")
	log.Warn("kept")
	log.Error("kept")
	lines := strings.Count(buf.String(), "\n")
	if lines != 2 {
		t.Fatalf("want 2 lines past the warn gate, got %d:\n%s", lines, buf.String())
	}
	if strings.Contains(buf.String(), "dropped") {
		t.Fatalf("gated record leaked: %s", buf.String())
	}
}

// TestNopAllocationFree: Nop, and any logger derived from it, is disabled
// at every level, and a call through it costs no allocation beyond boxing
// its arguments (none here: they are constants).
func TestNopAllocationFree(t *testing.T) {
	log := Nop()
	for _, l := range []*slog.Logger{log, log.With("seq", 7).WithGroup("round")} {
		for _, lv := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
			if l.Enabled(context.Background(), lv) {
				t.Fatalf("Nop enabled at %v", lv)
			}
		}
	}
	n := testing.AllocsPerRun(100, func() {
		log.Debug("never rendered", "worker", "w1", "domains", 3)
		log.Error("never rendered", "seq", 7)
	})
	if n != 0 {
		t.Fatalf("Nop logger allocated %.1f times per call chain, want 0", n)
	}
}
