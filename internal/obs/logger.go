package obs

// Logger is the pluggable structured event sink. Events are named
// ("refresh.canary", "cluster.node", …) with alternating key/value
// context, the shape of log/slog — the facade provides an slog-backed
// implementation; the default everywhere is no logging at all.
type Logger interface {
	Event(name string, kv ...any)
}

// NopLogger discards every event.
type NopLogger struct{}

// Event discards the event.
func (NopLogger) Event(string, ...any) {}

// FuncLogger adapts a plain function into a Logger.
type FuncLogger func(name string, kv ...any)

// Event calls the function.
func (f FuncLogger) Event(name string, kv ...any) { f(name, kv...) }
