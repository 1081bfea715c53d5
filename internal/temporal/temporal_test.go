package temporal

import (
	"testing"
	"testing/quick"
)

func TestParseBenchmarkConstants(t *testing.T) {
	now := Date(1980, 3, 1, 0, 0, 0)
	cases := []struct {
		in   string
		want Time
	}{
		{"08:00 1/1/80", Date(1980, 1, 1, 8, 0, 0)},
		{"4:00 1/1/80", Date(1980, 1, 1, 4, 0, 0)},
		{"1981", Date(1981, 1, 1, 0, 0, 0)},
		{"1/1/80", Date(1980, 1, 1, 0, 0, 0)},
		{"2/15/1980", Date(1980, 2, 15, 0, 0, 0)},
		{"1980-01-01 08:00:00", Date(1980, 1, 1, 8, 0, 0)},
		{"now", now},
		{"NOW", now},
		{"forever", Forever},
		{"infinity", Forever},
		{"beginning", Beginning},
		{" 08:00 1/1/80 ", Date(1980, 1, 1, 8, 0, 0)},
	}
	for _, c := range cases {
		got, err := Parse(c.in, now)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %d (%s), want %d (%s)", c.in, got, got, c.want, c.want)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "not a date", "13:99 1/1/80", "1/32/80"} {
		if _, err := Parse(s, 0); err == nil {
			t.Errorf("Parse(%q) succeeded", s)
		}
	}
}

// TestParseStorableRange: a calendar constant outside the 32-bit range a
// version stores is an error; the range's ends parse exactly.
func TestParseStorableRange(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Time
	}{
		{"20:45:52 12/13/1901", Earliest},
		{"03:14:07 1/19/2038", Forever},
		{"1/1/2035", Date(2035, 1, 1, 0, 0, 0)},
		{"1/1/69", Date(1969, 1, 1, 0, 0, 0)},
		{"1/1/37", Date(2037, 1, 1, 0, 0, 0)},
		{"0080", Date(1980, 1, 1, 0, 0, 0)},
	} {
		if got, err := Parse(c.in, 0); err != nil || got != c.want {
			t.Errorf("Parse(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	for _, s := range []string{"20:45:51 12/13/1901", "03:14:08 1/19/2038", "1/1/2050", "1/1/50", "1900", "9999"} {
		if got, err := Parse(s, 0); err == nil {
			t.Errorf("Parse(%q) = %d (%s), want an out-of-range error", s, got, got)
		}
	}
}

func TestFormatResolutions(t *testing.T) {
	at := Date(1980, 2, 15, 8, 30, 45)
	cases := []struct {
		res  Resolution
		want string
	}{
		{Second, "08:30:45 2/15/1980"},
		{Minute, "08:30 2/15/1980"},
		{Hour, "08:00 2/15/1980"},
		{Day, "2/15/1980"},
		{Month, "2/1980"},
		{Year, "1980"},
	}
	for _, c := range cases {
		if got := Format(at, c.res); got != c.want {
			t.Errorf("Format(res=%d) = %q, want %q", c.res, got, c.want)
		}
	}
	if got := Format(Forever, Second); got != "forever" {
		t.Errorf("Format(Forever) = %q", got)
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	// Second-resolution output is re-parsable.
	orig := Date(1983, 7, 4, 23, 59, 59)
	s := Format(orig, Second)
	got, err := Parse(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Errorf("round trip %q: %d != %d", s, got, orig)
	}
}

func TestIntervalPredicates(t *testing.T) {
	a := Interval{From: 10, To: 20}
	b := Interval{From: 15, To: 30}
	c := Interval{From: 25, To: 30}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a/b should overlap")
	}
	if a.Overlaps(c) {
		t.Error("a/c should not overlap")
	}
	// Half-open semantics: touching endpoints do not overlap — the old
	// version [10,20) and its successor [20,25) are disjoint.
	if a.Overlaps(Interval{From: 20, To: 25}) {
		t.Error("adjacent intervals must not overlap (half-open semantics)")
	}
	if !a.Precedes(c) {
		t.Error("a precedes c")
	}
	if a.Precedes(b) {
		t.Error("a does not precede b")
	}
	// precede allows touching.
	if !a.Precedes(Interval{From: 20, To: 21}) {
		t.Error("a precedes interval starting at its end")
	}
}

func TestIntervalConstructors(t *testing.T) {
	a := Interval{From: 10, To: 20}
	b := Interval{From: 15, To: 30}
	iv, ok := a.Intersect(b)
	if !ok || iv != (Interval{From: 15, To: 20}) {
		t.Errorf("Intersect = %v, %v", iv, ok)
	}
	if _, ok := a.Intersect(Interval{From: 21, To: 22}); ok {
		t.Error("disjoint Intersect reported ok")
	}
	if got := a.Extend(b); got != (Interval{From: 10, To: 30}) {
		t.Errorf("Extend = %v", got)
	}
	if got := a.Start(); got != Event(10) {
		t.Errorf("Start = %v", got)
	}
	if got := a.End(); got != Event(20) {
		t.Errorf("End = %v", got)
	}
	if !Event(5).IsEvent() {
		t.Error("Event not IsEvent")
	}
}

func TestEventOverlap(t *testing.T) {
	// An event overlaps an interval containing it — the `when h overlap
	// "now"` idiom for current versions.
	cur := Interval{From: 100, To: Forever}
	if !cur.Overlaps(Event(500)) {
		t.Error("current version should overlap now")
	}
	old := Interval{From: 100, To: 400}
	if old.Overlaps(Event(500)) {
		t.Error("closed old version should not overlap a later now")
	}
	// Half-open: a version closed at 400 is no longer valid at 400.
	if old.Overlaps(Event(400)) {
		t.Error("version closed at t must not overlap the event at t")
	}
	if !old.Overlaps(Event(399)) {
		t.Error("version should overlap its last chronon")
	}
	// Two events at the same instant share their chronon.
	if !Event(400).Overlaps(Event(400)) {
		t.Error("identical events should overlap")
	}
	if Event(400).Overlaps(Event(401)) {
		t.Error("distinct events should not overlap")
	}
}

func TestTransactionTimeVisibility(t *testing.T) {
	// Half-open [start, stop): as of the instant of an update, only the new
	// version is visible.
	old := Interval{From: 100, To: 200}
	new_ := Interval{From: 200, To: Forever}
	if old.ContainsTX(200) {
		t.Error("superseded version visible at its stop time")
	}
	if !new_.ContainsTX(200) {
		t.Error("new version not visible at its start time")
	}
	if !old.ContainsTX(100) || !old.ContainsTX(199) {
		t.Error("version not visible within its lifetime")
	}
}

func TestClock(t *testing.T) {
	c := NewClock(Date(1980, 1, 1, 0, 0, 0))
	t0 := c.Now()
	c.Advance(60)
	if c.Now() != t0+60 {
		t.Errorf("Advance: %d", c.Now()-t0)
	}
	if got := c.Tick(); got != t0+61 || c.Now() != t0+61 {
		t.Errorf("Tick: %d", got-t0)
	}
	c.Set(t0)
	if c.Now() != t0 {
		t.Error("Set failed")
	}
}

// Properties of the interval algebra.
func TestIntervalAlgebraProperties(t *testing.T) {
	mk := func(a, b int32) Interval {
		if a > b {
			a, b = b, a
		}
		if a == b {
			return Event(Time(a)) // avoid empty intervals in the properties
		}
		return Interval{From: Time(a), To: Time(b)}
	}
	// Overlap is symmetric and agrees with Intersect.
	sym := func(a1, a2, b1, b2 int32) bool {
		a, b := mk(a1, a2), mk(b1, b2)
		_, ok := a.Intersect(b)
		return a.Overlaps(b) == b.Overlaps(a) && a.Overlaps(b) == ok
	}
	if err := quick.Check(sym, nil); err != nil {
		t.Error(err)
	}
	// Extend covers both operands; Intersect is covered by both.
	cover := func(a1, a2, b1, b2 int32) bool {
		a, b := mk(a1, a2), mk(b1, b2)
		e := a.Extend(b)
		if !(e.From <= a.From && e.To >= a.To && e.From <= b.From && e.To >= b.To) {
			return false
		}
		if iv, ok := a.Intersect(b); ok {
			if !(iv.From >= a.From && iv.To <= a.To && iv.From >= b.From && iv.To <= b.To) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(cover, nil); err != nil {
		t.Error(err)
	}
	// precede is antisymmetric: intervals always occupy at least one
	// chronon, so mutual precedence is impossible.
	antisym := func(a1, a2, b1, b2 int32) bool {
		a, b := mk(a1, a2), mk(b1, b2)
		return !(a.Precedes(b) && b.Precedes(a))
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Error(err)
	}
	// precede and overlap are mutually exclusive.
	excl := func(a1, a2, b1, b2 int32) bool {
		a, b := mk(a1, a2), mk(b1, b2)
		return !(a.Precedes(b) && a.Overlaps(b))
	}
	if err := quick.Check(excl, nil); err != nil {
		t.Error(err)
	}
	// Overlap is reflexive for valid intervals.
	refl := func(a1, a2 int32) bool {
		a := mk(a1, a2)
		return a.Overlaps(a)
	}
	if err := quick.Check(refl, nil); err != nil {
		t.Error(err)
	}
}

// FuzzTemporalParse: Parse never panics, every constant it accepts lies
// in the storable range, and an accepted constant's String() parses back
// to the same Time.
func FuzzTemporalParse(f *testing.F) {
	for _, layout := range parseLayouts {
		f.Add(Date(1983, 7, 4, 23, 59, 59).Unix().Format(layout))
	}
	for _, s := range []string{
		"now", "forever", "beginning", "1/1/80", "0080",
		"20:45:52 12/13/1901", "20:45:51 12/13/1901",
		"03:14:07 1/19/2038", "03:14:08 1/19/2038",
		"1/1/2035", "1/1/2050", "1/1/50", "13:99 1/1/80", "",
	} {
		f.Add(s)
	}
	now := Date(1980, 1, 1, 0, 0, 0)
	f.Fuzz(func(t *testing.T, s string) {
		got, err := Parse(s, now)
		if err != nil {
			return
		}
		if got < Earliest || got > Forever {
			t.Fatalf("Parse(%q) = %d, outside [%d, %d]", s, got, Earliest, Forever)
		}
		again, err := Parse(got.String(), now)
		if err != nil || again != got {
			t.Fatalf("Parse(%q) = %d; its String %q parses to %d, %v", s, got, got.String(), again, err)
		}
	})
}
