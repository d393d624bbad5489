package telemetry

// Counter is a monotonic counter. Like the rest of its sink it belongs
// to the goroutine that fires the kernel the sink is attached to: Add is
// a plain add, and Value is read on that goroutine or after it has
// stopped. The zero value is ready to use, and all methods are
// nil-safe: a nil *Counter ignores Add and reads as 0, which is what
// makes a disabled telemetry plane free.
type Counter struct {
	n uint64
}

// Add increments the counter by n.
//
//guardrails:hotpath
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.n += n
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n
}
