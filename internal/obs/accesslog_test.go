package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// logEntry is the JSON shape of one access-log line: the decode side of
// the object WriteMeta encodes by hand. Cycle fields are present only on
// sampled spans; latency is reported in microseconds to match /stats.
// Path and UserAgent are truncated to maxLogFieldLen.
type logEntry struct {
	Time       string             `json:"ts"`
	Request    uint64             `json:"request"`
	RequestID  string             `json:"request_id,omitempty"`
	Worker     int                `json:"worker"`
	Backend    string             `json:"backend"`
	Path       string             `json:"path,omitempty"`
	UserAgent  string             `json:"user_agent,omitempty"`
	LatencyUS  int64              `json:"latency_us"`
	QueueUS    int64              `json:"queue_us,omitempty"`
	Status     int                `json:"status,omitempty"`
	Outcome    string             `json:"outcome,omitempty"`
	Bytes      int                `json:"bytes"`
	Sampled    bool               `json:"sampled"`
	Rerouted   bool               `json:"rerouted,omitempty"`
	ShedReason string             `json:"shed_reason,omitempty"`
	Cycles     float64            `json:"cycles,omitempty"`
	Breakdown  map[string]float64 `json:"cycles_by_category,omitempty"`
}

func TestAccessLogTruncatesHostileFields(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLog(&buf)

	hostilePath := "/posts?q=" + strings.Repeat("A", 1<<20)
	hostileUA := strings.Repeat("Mozilla/5.0 ", 1<<16)
	err := l.WriteMeta(Span{Request: 1, Wall: time.Millisecond, Sampled: true}, 64,
		RequestMeta{Path: hostilePath, UserAgent: hostileUA})
	if err != nil {
		t.Fatal(err)
	}

	line := buf.Bytes()
	if len(line) > 2048 {
		t.Errorf("log line is %d bytes; hostile fields were not bounded", len(line))
	}
	var e logEntry
	if err := json.Unmarshal(line, &e); err != nil {
		t.Fatalf("truncated line is not valid JSON: %v", err)
	}
	if !strings.HasSuffix(e.Path, "…") || !strings.HasSuffix(e.UserAgent, "…") {
		t.Errorf("truncated fields should be marked: path=%q ua=%q", e.Path, e.UserAgent)
	}
	if !strings.HasPrefix(e.Path, "/posts?q=AAA") {
		t.Errorf("path prefix lost: %q", e.Path)
	}
	if len(e.Path) > maxLogFieldLen+len("…") {
		t.Errorf("path still %d bytes", len(e.Path))
	}
}

func TestAccessLogShortFieldsUntouched(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLog(&buf)
	if err := l.WriteMeta(Span{Request: 2}, 0, RequestMeta{Path: "/", UserAgent: "curl/8.0"}); err != nil {
		t.Fatal(err)
	}
	var e logEntry
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Path != "/" || e.UserAgent != "curl/8.0" {
		t.Errorf("fields altered: %+v", e)
	}
}

func TestTruncateFieldRuneBoundary(t *testing.T) {
	// Fill to just under the cap, then place a multi-byte rune straddling
	// it: truncation must back up to the rune start, not emit a torn rune.
	s := strings.Repeat("x", maxLogFieldLen-1) + "日本語"
	got := truncateField(s)
	if !utf8.ValidString(got) {
		t.Errorf("truncation split a rune: %q", got[len(got)-8:])
	}
	if !strings.HasSuffix(got, "…") {
		t.Errorf("missing ellipsis: %q", got)
	}
	if len(got) > maxLogFieldLen+len("…") {
		t.Errorf("len = %d", len(got))
	}
}

// TestAccessLogBackendFieldSchema is the regression test for the
// multi-process log-line schema: every line carries a backend field —
// "-" for standalone processes, the backend id in cluster mode — and
// the raw JSON always includes the key so downstream parsers can rely
// on it.
func TestAccessLogBackendFieldSchema(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLog(&buf)
	if err := l.WriteMeta(Span{Request: 1}, 0, RequestMeta{Path: "/"}); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if got, ok := raw["backend"]; !ok || got != "-" {
		t.Fatalf("standalone line backend = %v (present %v), want \"-\"", got, ok)
	}

	buf.Reset()
	l.SetBackend("3")
	if err := l.WriteMeta(Span{Request: 2}, 0, RequestMeta{Path: "/"}); err != nil {
		t.Fatal(err)
	}
	var e logEntry
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Backend != "3" {
		t.Fatalf("cluster line backend = %q, want \"3\"", e.Backend)
	}

	// Sheds go through the same writer and must carry the id too.
	buf.Reset()
	c := NewCollector(0, &buf, nil)
	c.SetBackend("7")
	c.ObserveShed(RequestMeta{Status: 503, Outcome: "shed_overload"})
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Backend != "7" || e.Outcome != "shed_overload" {
		t.Fatalf("shed line = %+v, want backend 7 outcome shed_overload", e)
	}

	// Empty id resets to the standalone marker rather than logging "".
	l.SetBackend("")
	buf.Reset()
	_ = l.WriteMeta(Span{Request: 3}, 0, RequestMeta{})
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Backend != "-" {
		t.Fatalf("reset backend = %q, want \"-\"", e.Backend)
	}
}
