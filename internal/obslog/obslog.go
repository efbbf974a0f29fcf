package obslog

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level orders log severities. Events below a logger's level are gated
// out before any rendering work happens.
type Level int8

// Levels, least to most severe. Disabled sits above every severity, so a
// Disabled logger emits nothing.
const (
	DebugLevel Level = iota
	InfoLevel
	WarnLevel
	ErrorLevel
	Disabled
)

// String names the level as it appears in the level= field.
func (l Level) String() string {
	switch l {
	case DebugLevel:
		return "debug"
	case InfoLevel:
		return "info"
	case WarnLevel:
		return "warn"
	case ErrorLevel:
		return "error"
	}
	return "disabled"
}

// ParseLevel resolves a -log-level flag value.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return DebugLevel, nil
	case "info":
		return InfoLevel, nil
	case "warn", "warning":
		return WarnLevel, nil
	case "error":
		return ErrorLevel, nil
	case "off", "disabled", "none":
		return Disabled, nil
	}
	return Disabled, fmt.Errorf("obslog: unknown level %q (want debug|info|warn|error|off)", s)
}

// Logger gates and renders events. It is a value: copies are independent,
// context fields added with Str/Int are carried by the copy. The zero
// value is a no-op logger (nil writer), as is Nop().
type Logger struct {
	out io.Writer
	mu  *sync.Mutex // serializes writes to out across derived loggers
	min Level
	ctx string // pre-rendered " k=v" context suffix
	// now stamps the ts= field; tests may pin it. Nil means time.Now.
	now func() time.Time
}

// New builds a logger writing one line per event to out, discarding
// events below min. Loggers derived from it (Str/Int context) share one
// write mutex, so their lines never interleave.
func New(out io.Writer, min Level) Logger {
	return Logger{out: out, mu: &sync.Mutex{}, min: min}
}

// Nop returns a logger that discards everything at zero cost — the
// default every component should fall back to when no logger is wired.
func Nop() Logger { return Logger{min: Disabled} }

// WithClock pins the timestamp source (tests).
func (l Logger) WithClock(now func() time.Time) Logger {
	l.now = now
	return l
}

// Str derives a logger whose every event carries key=val.
func (l Logger) Str(key, val string) Logger {
	l.ctx += " " + key + "=" + quote(val)
	return l
}

// Int derives a logger whose every event carries key=val.
func (l Logger) Int(key string, val int) Logger {
	l.ctx += " " + key + "=" + strconv.Itoa(val)
	return l
}

// Enabled reports whether events at lv would be emitted.
func (l Logger) Enabled(lv Level) bool { return l.out != nil && lv >= l.min && lv < Disabled }

// Debug starts a debug event; nil (free) when gated out.
func (l Logger) Debug() *Event { return l.event(DebugLevel) }

// Info starts an info event; nil (free) when gated out.
func (l Logger) Info() *Event { return l.event(InfoLevel) }

// Warn starts a warn event; nil (free) when gated out.
func (l Logger) Warn() *Event { return l.event(WarnLevel) }

// Error starts an error event; nil (free) when gated out.
func (l Logger) Error() *Event { return l.event(ErrorLevel) }

// Fatal emits err at error level and exits with status 1 — this
// package's log.Fatal, for a daemon's start-up and shutdown failures.
// Deferred functions do not run.
func (l Logger) Fatal(err error) {
	l.Error().Err(err).Msg("fatal")
	os.Exit(1)
}

func (l Logger) event(lv Level) *Event {
	if !l.Enabled(lv) {
		return nil
	}
	now := time.Now
	if l.now != nil {
		now = l.now
	}
	e := &Event{out: l.out, mu: l.mu}
	e.buf = append(e.buf, "ts="...)
	e.buf = now().UTC().AppendFormat(e.buf, time.RFC3339)
	e.buf = append(e.buf, " level="...)
	e.buf = append(e.buf, lv.String()...)
	e.buf = append(e.buf, l.ctx...)
	return e
}

// Event is one in-flight log line. All methods are nil-safe: a gated-out
// event is a nil pointer and every chained call is a no-op, which is what
// keeps disabled call sites allocation-free.
type Event struct {
	out io.Writer
	mu  *sync.Mutex
	buf []byte
}

// Str appends key=val.
func (e *Event) Str(key, val string) *Event {
	if e == nil {
		return nil
	}
	e.buf = append(e.buf, ' ')
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, '=')
	e.buf = append(e.buf, quote(val)...)
	return e
}

// Int appends key=val.
func (e *Event) Int(key string, val int) *Event {
	if e == nil {
		return nil
	}
	e.buf = append(e.buf, ' ')
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, '=')
	e.buf = strconv.AppendInt(e.buf, int64(val), 10)
	return e
}

// Uint64 appends key=val.
func (e *Event) Uint64(key string, val uint64) *Event {
	if e == nil {
		return nil
	}
	e.buf = append(e.buf, ' ')
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, '=')
	e.buf = strconv.AppendUint(e.buf, val, 10)
	return e
}

// Float64 appends key=val in shortest round-trip form.
func (e *Event) Float64(key string, val float64) *Event {
	if e == nil {
		return nil
	}
	e.buf = append(e.buf, ' ')
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, '=')
	e.buf = strconv.AppendFloat(e.buf, val, 'g', -1, 64)
	return e
}

// Dur appends key=val as a time.Duration string.
func (e *Event) Dur(key string, val time.Duration) *Event {
	if e == nil {
		return nil
	}
	return e.Str(key, val.String())
}

// Err appends err=<message> (skipped when err is nil).
func (e *Event) Err(err error) *Event {
	if e == nil || err == nil {
		return e
	}
	return e.Str("err", err.Error())
}

// Msg terminates the event: the message lands last on the line and the
// line is written atomically. The event must not be reused.
func (e *Event) Msg(msg string) {
	if e == nil {
		return
	}
	e.buf = append(e.buf, " msg="...)
	e.buf = append(e.buf, quote(msg)...)
	e.buf = append(e.buf, '\n')
	e.mu.Lock()
	e.out.Write(e.buf) //nolint:errcheck // logging is best-effort by contract
	e.mu.Unlock()
}

// quote renders a value, quoting only when it contains logfmt-hostile
// characters (spaces, quotes, '=', control bytes) or is empty.
func quote(s string) string {
	if s == "" {
		return `""`
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c == '"' || c == '=' || c == 0x7f {
			return strconv.Quote(s)
		}
	}
	return s
}
