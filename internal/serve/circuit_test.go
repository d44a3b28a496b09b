package serve

import (
	"testing"
	"time"
)

// breakerEntry is the breaker's per-workload state under the name the
// settle-path tests seed it by.
type breakerEntry = circuit

// TestCircuit replays the sequences the per-workload breaker and the
// storage health machine drive through their one circuit type.
func TestCircuit(t *testing.T) {
	type step struct {
		op    string        // allow, fail, succeed or abandon
		at    time.Duration // since the start of the sequence
		want  bool          // allow: ok; fail: tripped; succeed: closed
		probe bool          // allow: admitted as the probe
		open  bool          // circuit open after the step
	}
	on := circuitPolicy{threshold: 2, cooloff: time.Minute}
	trip := []step{{op: "fail"}, {op: "fail", want: true, open: true}}
	seq := func(steps ...step) []step { return append(append([]step(nil), trip...), steps...) }
	cases := []struct {
		name  string
		p     circuitPolicy
		steps []step
	}{
		{"trip at threshold", on, []step{
			{op: "allow", want: true},
			{op: "fail"},
			{op: "allow", want: true},
			{op: "fail", want: true, open: true},
		}},
		{"success resets the streak", on, []step{
			{op: "fail"},
			{op: "succeed"},
			{op: "fail"},
			{op: "allow", want: true},
		}},
		{"window refuses", on, seq(
			step{op: "allow", at: 30 * time.Second, open: true},
			step{op: "allow", at: 59 * time.Second, open: true},
		)},
		{"exactly one probe", on, seq(
			step{op: "allow", at: 2 * time.Minute, want: true, probe: true, open: true},
			step{op: "allow", at: 2 * time.Minute, open: true},
			step{op: "allow", at: 5 * time.Minute, open: true},
		)},
		{"successful probe closes", on, seq(
			step{op: "allow", at: 2 * time.Minute, want: true, probe: true, open: true},
			step{op: "succeed", at: 2 * time.Minute, want: true},
			step{op: "allow", at: 2 * time.Minute, want: true},
			step{op: "fail", at: 2 * time.Minute},
		)},
		{"abandon frees the probe slot", on, seq(
			step{op: "allow", at: 2 * time.Minute, want: true, probe: true, open: true},
			step{op: "abandon", at: 2 * time.Minute, open: true},
			step{op: "allow", at: 2 * time.Minute, want: true, probe: true, open: true},
		)},
		{"failed probe re-trips and restarts the window", on, seq(
			step{op: "allow", at: 2 * time.Minute, want: true, probe: true, open: true},
			step{op: "fail", at: 2 * time.Minute, want: true, open: true},
			step{op: "allow", at: 2*time.Minute + 59*time.Second, open: true},
			step{op: "allow", at: 3 * time.Minute, want: true, probe: true, open: true},
		)},
		{"straggler failure while open restarts the window", on, seq(
			step{op: "fail", at: 50 * time.Second, open: true},
			step{op: "allow", at: 70 * time.Second, open: true},
			step{op: "allow", at: 110 * time.Second, want: true, probe: true, open: true},
		)},
		{"straggler success while open stays open", on, seq(
			step{op: "succeed", at: 10 * time.Second, open: true},
			step{op: "allow", at: 30 * time.Second, open: true},
			step{op: "allow", at: 2 * time.Minute, want: true, probe: true, open: true},
		)},
		{"disabled", circuitPolicy{threshold: 0, cooloff: time.Minute}, []step{
			{op: "fail"}, {op: "fail"}, {op: "fail"},
			{op: "allow", want: true},
		}},
		{"negative threshold disables", circuitPolicy{threshold: -1, cooloff: time.Minute}, []step{
			{op: "fail"}, {op: "fail"},
			{op: "allow", want: true},
		}},
	}
	t0 := time.Unix(1_000_000, 0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c circuit
			for i, st := range tc.steps {
				now := t0.Add(st.at)
				var got, probe bool
				switch st.op {
				case "allow":
					var wait time.Duration
					got, probe, wait = c.allow(tc.p, now)
					if !got && wait <= 0 {
						t.Fatalf("step %d: refused with wait %v", i, wait)
					}
				case "fail":
					got = c.fail(tc.p, now)
				case "succeed":
					got = c.succeed()
				case "abandon":
					c.abandon()
				}
				if got != st.want || probe != st.probe || c.open() != st.open {
					t.Fatalf("step %d (%s at %v): got %v probe=%v open=%v, want %v probe=%v open=%v",
						i, st.op, st.at, got, probe, c.open(), st.want, st.probe, st.open)
				}
			}
		})
	}
}
