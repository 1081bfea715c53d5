// Package temporal implements the time support of Section 4 of the paper:
// a distinct temporal attribute type ("a 32 bit integer with a resolution of
// one second"), human-readable input in several date formats, output at
// resolutions from a second to a year, the distinguished value "forever",
// and the interval algebra behind TQuel's temporal operators (overlap,
// precede, extend, start of, end of).
package temporal

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"
)

// Time is a point in time in seconds. The prototype stores it as a 32-bit
// integer; we keep int64 in memory and clamp to 32 bits on storage.
type Time int64

// Distinguished values.
const (
	// Beginning is the origin of time (the earliest representable instant).
	Beginning Time = 0
	// Forever marks the stop time of current versions ("forever" in the
	// paper): the largest value of the 32-bit representation.
	Forever Time = math.MaxInt32
)

// IsForever reports whether t is the distinguished "forever" value.
func (t Time) IsForever() bool { return t >= Forever }

// Unix converts t to a stdlib time.Time in UTC.
func (t Time) Unix() time.Time { return time.Unix(int64(t), 0).UTC() }

// FromUnix converts a stdlib time to a temporal Time.
func FromUnix(u time.Time) Time { return Time(u.Unix()) }

// Date builds a Time from calendar components (UTC).
func Date(year, month, day, hour, min, sec int) Time {
	return FromUnix(time.Date(year, time.Month(month), day, hour, min, sec, 0, time.UTC))
}

// Resolution selects the precision of formatted output (Section 4:
// "resolutions ranging from a second to a year are selectable").
type Resolution int

// Output resolutions.
const (
	Second Resolution = iota
	Minute
	Hour
	Day
	Month
	Year
)

// Format renders t at the given resolution. Forever renders as "forever".
func Format(t Time, res Resolution) string {
	if t.IsForever() {
		return "forever"
	}
	u := t.Unix()
	switch res {
	case Second:
		return u.Format("15:04:05 1/2/2006")
	case Minute:
		return u.Format("15:04 1/2/2006")
	case Hour:
		return u.Format("15:00 1/2/2006")
	case Day:
		return u.Format("1/2/2006")
	case Month:
		return u.Format("1/2006")
	case Year:
		return u.Format("2006")
	}
	return u.Format("15:04:05 1/2/2006")
}

// String renders t at second resolution.
func (t Time) String() string { return Format(t, Second) }

// parseLayouts are the accepted input formats ("various formats of date and
// time are accepted for input", Section 4). Two-digit years follow Go:
// 69-99 are 19xx (the benchmark's "1/1/80" constants), 00-68 are 20xx.
var parseLayouts = []string{
	"15:04:05 1/2/2006",
	"15:04 1/2/2006",
	"15:04:05 1/2/06",
	"15:04 1/2/06",
	"1/2/2006 15:04:05",
	"1/2/2006 15:04",
	"1/2/2006",
	"1/2/06",
	"2006-01-02 15:04:05",
	"2006-01-02 15:04",
	"2006-01-02",
	"1/2006",
	"2006",
}

// Earliest is the earliest instant a version can store: the smallest
// value of the 32-bit representation.
const Earliest Time = math.MinInt32

// Parse interprets a TQuel time constant. The strings "now" and "forever"
// resolve to the supplied current time and to Forever respectively. A
// calendar constant outside [Earliest, Forever] is an error: stored in 32
// bits it would wrap to another time.
func Parse(s string, now Time) (Time, error) {
	trimmed := strings.TrimSpace(s)
	switch strings.ToLower(trimmed) {
	case "now":
		return now, nil
	case "forever", "infinity":
		return Forever, nil
	case "beginning":
		return Beginning, nil
	}
	for _, layout := range parseLayouts {
		if u, err := time.Parse(layout, trimmed); err == nil {
			// A four-digit year below 100 ("0080") is taken as 19xx.
			if u.Year() < 100 {
				u = u.AddDate(1900, 0, 0)
			}
			t := FromUnix(u)
			if t < Earliest || t > Forever {
				return 0, fmt.Errorf("temporal: time constant %q is outside the storable range %s to forever", s, Earliest)
			}
			return t, nil
		}
	}
	return 0, fmt.Errorf("temporal: cannot parse time constant %q", s)
}

// Interval is a span of valid or transaction time over one-second
// chronons: the half-open span [From, To). An event is the single chronon
// [t, t+1), and [t, t) is genuinely empty (an update that begins and ends
// its validity at the same instant denotes nothing). Half-open semantics
// make adjacent versions (one ending and one starting at the same update
// instant) disjoint, which is what keeps the benchmark's snapshot queries
// returning one version per tuple.
type Interval struct {
	From, To Time
}

// Event builds the single-chronon interval [t, t+1).
func Event(t Time) Interval { return Interval{From: t, To: t + 1} }

// IsEvent reports whether the interval occupies exactly one chronon.
func (iv Interval) IsEvent() bool { return iv.To == iv.From+1 }

// IsEmpty reports whether the interval occupies no chronon at all.
func (iv Interval) IsEmpty() bool { return iv.To <= iv.From }

// Valid reports whether the interval is well-formed (From <= To). Empty
// intervals are well-formed; they just denote nothing.
func (iv Interval) Valid() bool { return iv.From <= iv.To }

// Overlaps implements TQuel's `overlap`: the intervals share at least one
// chronon. Empty intervals overlap nothing.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.From < other.To && other.From < iv.To
}

// Precedes implements TQuel's `precede`: every chronon of iv falls before
// every chronon of other.
func (iv Interval) Precedes(other Interval) bool {
	return iv.To <= other.From
}

// Intersect implements the interval-valued `overlap` expression: the common
// span of chronons. ok is false when the intervals do not overlap.
func (iv Interval) Intersect(other Interval) (Interval, bool) {
	from := maxTime(iv.From, other.From)
	to := minTime(iv.To, other.To)
	if from >= to {
		return Interval{From: from, To: from}, false
	}
	return Interval{From: from, To: to}, true
}

// Extend implements TQuel's `extend`: the smallest interval covering both.
func (iv Interval) Extend(other Interval) Interval {
	return Interval{From: minTime(iv.From, other.From), To: maxTime(iv.To, other.To)}
}

// Start implements `start of`: the event at the interval's first chronon.
func (iv Interval) Start() Interval { return Event(iv.From) }

// End implements `end of`: the event at the interval's end instant — the
// event itself for an event, [To, To+1) otherwise, so that the endpoint
// instant is always the result's From.
func (iv Interval) End() Interval {
	if iv.IsEvent() || iv.IsEmpty() {
		return iv
	}
	return Event(iv.To)
}

// Contains reports whether the instant t falls in an occupied chronon.
func (iv Interval) Contains(t Time) bool { return iv.From <= t && t < iv.To }

// ContainsTX reports whether the instant t lies within the half-open
// transaction-time interval [From, To). Rollback visibility uses half-open
// semantics so that `as of` the exact moment of an update sees only the new
// version.
func (iv Interval) ContainsTX(t Time) bool { return iv.From <= t && t < iv.To }

// String renders the interval at second resolution.
func (iv Interval) String() string {
	if iv.IsEvent() {
		return "at " + Format(iv.From, Second)
	}
	return "from " + Format(iv.From, Second) + " to " + Format(iv.To, Second)
}

func minTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

func maxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Clock is the logical clock supplying "now" for DML timestamps and query
// defaults. The benchmark advances it explicitly between update rounds so
// that runs are deterministic (a substitution for the wall clock of the
// original prototype; see DESIGN.md). The value is atomic so sessions can
// read it while another session sets or advances it.
type Clock struct {
	now atomic.Int64
}

// NewClock starts a clock at t.
func NewClock(t Time) *Clock {
	c := &Clock{}
	c.now.Store(int64(t))
	return c
}

// Now returns the current logical time.
func (c *Clock) Now() Time { return Time(c.now.Load()) }

// Set moves the clock to t (backwards moves are allowed for tests).
func (c *Clock) Set(t Time) { c.now.Store(int64(t)) }

// Advance moves the clock forward by d seconds.
func (c *Clock) Advance(d int64) { c.now.Add(d) }

// Tick advances the clock by one second and returns the new time.
func (c *Clock) Tick() Time {
	return Time(c.now.Add(1))
}
