package server

import "time"

// Clock abstracts the two time operations the serving layer performs —
// reading the wall clock (request latency, drain timing) and arming a
// one-shot timer (queue-wait deadlines) — so the overload chaos suite can
// drive admission with a manually advanced fake clock under -race. The zero
// Config uses the real clock.
type Clock interface {
	Now() time.Time
	// After returns a channel that receives once, after d has elapsed.
	After(d time.Duration) <-chan time.Time
}

// realClock is the production Clock, backed by package time.
type realClock struct{}

//spatialvet:ignore clockdirect realClock is the sanctioned bridge to package time
func (realClock) Now() time.Time { return time.Now() }

//spatialvet:ignore clockdirect realClock is the sanctioned bridge to package time
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
