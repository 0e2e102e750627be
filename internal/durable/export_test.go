package durable

// Test-only access to unexported knobs.

// WithGate returns o with the committer throttled by ch: the committer
// consumes one token each time it is about to park, letting tests fill
// the queue deterministically to exercise the degrade policies.
func WithGate(o Options, ch chan struct{}) Options {
	o.testGate = ch
	return o
}

// WithSteps returns o with fn told each checkpoint step as it finishes
// ("cut", "publish", "syncdir", "gc"), on the goroutine cutting
// the checkpoint.
func WithSteps(o Options, fn func(step string)) Options {
	o.testStep = fn
	return o
}
