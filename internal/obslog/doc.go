// Package obslog is the little log/slog does not already give this
// module: the one handler every daemon logs through, a disabled logger,
// and a fatal exit. There is no logger type of its own — every process
// and component logs through a *slog.Logger.
//
//	log := obslog.New(os.Stderr, slog.LevelInfo).With("service", "ovnes")
//	log.Info("worker joined", "worker", id)
//
// renders
//
//	time=2026-08-07T12:00:00.000Z level=INFO msg="worker joined" service=ovnes worker=w1
//
// slog's TextHandler: space-separated key=value pairs, the message before
// the fields, values quoted only when they need it. Components take a
// *slog.Logger in their options and treat nil as Nop. A call below the
// handler's level returns before rendering, but still boxes its
// non-constant arguments; nothing on the round path logs.
package obslog
