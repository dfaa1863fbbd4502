// Package sim provides the discrete-event simulation kernel underlying the
// active-storage emulator.
//
// The kernel follows the design sketched in Section 5 of the paper
// ("Emulator Implementation"): program execution is divided into segments
// separated by calls into the simulation library; an event queue keeps all
// communication and I/O events in temporal (causal) order; blocking
// synchronization is provided by condition variables whose waiters are woken
// by signal events. Each emulated thread of control is a runtime coroutine
// (iter.Pull) that the scheduler switches into and that switches back when it
// blocks, so exactly one runs at a time and simulations are fully
// deterministic and never race.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. Virtual time has no connection to the wall clock.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units, mirroring time.Duration.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever marks an event that never fires on its own; condition-variable
// waiters conceptually wait at t = Forever until a signal reschedules them
// (the "wakeup at t = infinity" device described in the paper).
const Forever Time = 1<<63 - 1

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

func (d Duration) String() string { return fmt.Sprintf("%.6fs", d.Seconds()) }

// DurationOf converts a floating-point number of seconds to a Duration.
func DurationOf(seconds float64) Duration { return Duration(seconds * float64(Second)) }
