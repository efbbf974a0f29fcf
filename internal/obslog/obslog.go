package obslog

import (
	"io"
	"log/slog"
	"os"
)

// New returns the logger every daemon writes through: one logfmt line per
// record at or above level, written to out. The check scripts grep these
// lines (`msg="took leadership"`, `replayed-rounds=3`), so the format is
// decided here and nowhere else.
func New(out io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(out, &slog.HandlerOptions{Level: level}))
}

// Nop returns a logger that is disabled at every level — what a component
// logs through when none is wired.
func Nop() *slog.Logger { return slog.New(slog.DiscardHandler) }

// Fatal logs err at error level and exits with status 1: log.Fatal for a
// daemon's start-up and shutdown failures. Deferred functions do not run.
func Fatal(log *slog.Logger, err error) {
	log.Error("fatal", "err", err)
	os.Exit(1)
}
