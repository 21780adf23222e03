package obs

import (
	"io"
	"math"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/sim"
)

// AccessLog writes one JSON object per logged request — sampled renders
// plus every shed — to an injectable io.Writer (a file in production, a
// bytes.Buffer in tests). Writes are serialized by an internal mutex so
// concurrent workers never interleave lines. Lines are encoded by hand
// with strconv.Append* into a buffer reused across calls (guarded by
// the same mutex), so a log write costs no per-call reflection or
// intermediate allocations; the tests decode every field back through
// encoding/json.
type AccessLog struct {
	mu      sync.Mutex
	w       io.Writer
	buf     []byte
	backend string
}

// NewAccessLog builds an access log writing JSON lines to w.
func NewAccessLog(w io.Writer) *AccessLog {
	return &AccessLog{w: w, backend: "-"}
}

// OpenAccessLog resolves an -accesslog flag value: "" disables (nil
// writer), "-" is stdout, anything else is a file appended to. The
// returned closer flushes the file on drain and is nil for stdout or
// disabled.
func OpenAccessLog(path string) (io.Writer, io.Closer, error) {
	switch path {
	case "":
		return nil, nil, nil
	case "-":
		return os.Stdout, nil, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return f, f, nil
}

// SetBackend stamps every subsequent line's backend field with id — the
// cluster-mode process identity ("0", "1", ...). Standalone processes
// keep the default "-", so multi-process log merges stay unambiguous.
func (l *AccessLog) SetBackend(id string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if id == "" {
		id = "-"
	}
	l.backend = id
}

// maxLogFieldLen bounds request-controlled string fields (path, user
// agent) in a log line. A hostile request with a megabyte URL or UA
// header otherwise turns every sampled line into a megabyte of JSON;
// beyond the cap the field is cut and marked with a trailing "…".
const maxLogFieldLen = 256

// truncateField caps a request-controlled string for logging, marking
// cut fields with a trailing ellipsis. Truncation counts bytes, backing
// up over a split UTF-8 rune so the output stays valid JSON text.
func truncateField(s string) string {
	if s == "" || len(s) <= maxLogFieldLen {
		return s
	}
	cut := maxLogFieldLen
	for cut > 0 && s[cut]&0xC0 == 0x80 { // don't split a rune
		cut--
	}
	return s[:cut] + "…"
}

// appendJSONString appends s as a quoted JSON string, escaping the
// characters encoding/json escapes by default (quotes, backslashes,
// control characters, and the HTML-sensitive <, >, &) so hand-encoded
// lines stay drop-in compatible with the reflective encoder's output.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"':
			b = append(b, '\\', '"')
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		}
		start = i + 1
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends f the way encoding/json renders floats:
// shortest decimal form, scientific notation only for extreme
// magnitudes.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	return strconv.AppendFloat(b, f, format, -1, 64)
}

// WriteMeta emits one line for the span with its HTTP request metadata.
// Unsampled spans log only identity and latency; sampled spans add the
// per-category cycle breakdown. Request-controlled fields are truncated
// so one request cannot bloat the log.
func (l *AccessLog) WriteMeta(sp Span, respBytes int, meta RequestMeta) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buf[:0]
	b = append(b, `{"ts":"`...)
	b = time.Now().UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","request":`...)
	b = strconv.AppendUint(b, sp.Request, 10)
	if meta.RequestID != "" {
		b = append(b, `,"request_id":`...)
		b = appendJSONString(b, meta.RequestID)
	}
	b = append(b, `,"worker":`...)
	b = strconv.AppendInt(b, int64(sp.Worker), 10)
	b = append(b, `,"backend":`...)
	backend := l.backend
	if meta.Backend != "" {
		// A per-request backend (the router logging which backend served
		// the proxied request) overrides the process-level identity.
		backend = meta.Backend
	}
	b = appendJSONString(b, backend)
	if meta.Path != "" {
		b = append(b, `,"path":`...)
		b = appendJSONString(b, truncateField(meta.Path))
	}
	if meta.UserAgent != "" {
		b = append(b, `,"user_agent":`...)
		b = appendJSONString(b, truncateField(meta.UserAgent))
	}
	b = append(b, `,"latency_us":`...)
	b = strconv.AppendInt(b, sp.Wall.Microseconds(), 10)
	if us := meta.QueueWait.Microseconds(); us != 0 {
		b = append(b, `,"queue_us":`...)
		b = strconv.AppendInt(b, us, 10)
	}
	if meta.Status != 0 {
		b = append(b, `,"status":`...)
		b = strconv.AppendInt(b, int64(meta.Status), 10)
	}
	if meta.Outcome != "" {
		b = append(b, `,"outcome":`...)
		b = appendJSONString(b, meta.Outcome)
	}
	b = append(b, `,"bytes":`...)
	b = strconv.AppendInt(b, int64(respBytes), 10)
	b = append(b, `,"sampled":`...)
	b = strconv.AppendBool(b, sp.Sampled)
	if meta.Rerouted {
		b = append(b, `,"rerouted":true`...)
	}
	if meta.ShedReason != "" {
		b = append(b, `,"shed_reason":`...)
		b = appendJSONString(b, meta.ShedReason)
	}
	if sp.Sampled && sp.Tree != nil {
		root := sp.Tree.Root
		if root.Cycles != 0 {
			b = append(b, `,"cycles":`...)
			b = appendJSONFloat(b, root.Cycles)
		}
		first := true
		for _, c := range sim.Categories() {
			v := root.Categories[c]
			if v == 0 {
				continue
			}
			if first {
				b = append(b, `,"cycles_by_category":{`...)
				first = false
			} else {
				b = append(b, ',')
			}
			b = appendJSONString(b, c.String())
			b = append(b, ':')
			b = appendJSONFloat(b, v)
		}
		if !first {
			b = append(b, '}')
		}
	}
	b = append(b, '}', '\n')
	l.buf = b
	_, err := l.w.Write(b)
	return err
}
