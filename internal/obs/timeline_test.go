package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// traceFile mirrors the Chrome trace-event object form for schema checks.
type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat"`
	Ph   string                 `json:"ph"`
	Ts   *float64               `json:"ts"`
	Dur  *float64               `json:"dur"`
	Pid  *int                   `json:"pid"`
	Tid  *int                   `json:"tid"`
	Args map[string]interface{} `json:"args"`
}

func decodeTimeline(t *testing.T, r *Recorder) ([]byte, traceFile) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, r); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("timeline is not valid JSON: %v\n%s", err, buf.String())
	}
	return buf.Bytes(), tf
}

// TestTimelineSchema holds every event to the trace-event contract Perfetto
// needs: "M" metadata events carry a name arg; "X" complete events carry
// name, ts, dur, pid and tid.
func TestTimelineSchema(t *testing.T) {
	_, tf := decodeTimeline(t, handRecorder())
	if len(tf.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	var xEvents int
	for i, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				t.Errorf("event %d: metadata name %q", i, ev.Name)
			}
			if _, ok := ev.Args["name"]; !ok {
				t.Errorf("event %d: metadata without args.name", i)
			}
		case "X":
			xEvents++
			if ev.Name == "" || ev.Ts == nil || ev.Dur == nil || ev.Pid == nil || ev.Tid == nil {
				t.Errorf("event %d: incomplete X event %+v", i, ev)
			}
			if *ev.Dur < 0 {
				t.Errorf("event %d: negative duration", i)
			}
		default:
			t.Errorf("event %d: unexpected phase %q", i, ev.Ph)
		}
	}
	// 3 spans + 1 link + 2 windows.
	if xEvents != 6 {
		t.Errorf("X events = %d, want 6", xEvents)
	}
}

func TestTimelineTracks(t *testing.T) {
	r := handRecorder()
	r.NameLinks(func(link int) string { return "torus+x" })
	raw, tf := decodeTimeline(t, r)
	pids := map[int]bool{}
	var sawStall, sawLinkName bool
	for _, ev := range tf.TraceEvents {
		if ev.Pid != nil {
			pids[*ev.Pid] = true
		}
		if strings.HasPrefix(ev.Name, "stall") {
			sawStall = true
		}
		if ev.Ph == "M" && ev.Args["name"] == "torus+x" {
			sawLinkName = true
		}
	}
	for _, pid := range []int{pidRanks, pidLinks, pidShards} {
		if !pids[pid] {
			t.Errorf("missing process group pid %d", pid)
		}
	}
	if !sawStall {
		t.Error("zero-event window not rendered as a stall")
	}
	if !sawLinkName {
		t.Error("link names ignored")
	}
	// Send spans carry peer and byte count for the Perfetto args pane.
	if !bytes.Contains(raw, []byte(`"peer":1`)) || !bytes.Contains(raw, []byte(`"wait":0.5`)) {
		t.Error("span/link args missing from the encoding")
	}
}

func TestTimelineEmptyRecorder(t *testing.T) {
	raw, tf := decodeTimeline(t, &Recorder{})
	if len(tf.TraceEvents) != 0 {
		t.Errorf("empty recorder produced %d events", len(tf.TraceEvents))
	}
	if !bytes.HasSuffix(raw, []byte("\n")) {
		t.Error("timeline not newline-terminated")
	}
}

func TestTimelineDeterministic(t *testing.T) {
	a, _ := decodeTimeline(t, handRecorder())
	b, _ := decodeTimeline(t, handRecorder())
	if !bytes.Equal(a, b) {
		t.Error("two identical recordings rendered differently")
	}
}
