package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// clockFields are the access-log fields that read a clock or a random
// source: the timestamp, the router-minted request ID and the latency;
// queueWait is the queue wait, which appears only when it rounds to a
// microsecond.
var (
	clockFields = regexp.MustCompile(`"ts":"[^"]*"|"request_id":"[^"]*"|"latency_us":\d+`)
	queueWait   = regexp.MustCompile(`,"queue_us":\d+`)
)

// TestAccessLogLines holds the access-log lines of a sampled render, a
// sampled cache hit and the router byte for byte, clock fields masked.
// A sampled line's cycles and cycles_by_category are the root of the
// span's tree; the router's span has no tree, so its line has no cycles.
func TestAccessLogLines(t *testing.T) {
	var backendLog, routerLog lockedBuffer
	c := testConfig(1, 2, 1, &backendLog)
	c.CacheCapacity, c.Pages, c.ZipfS = 8, 64, 1.0
	backend := httptest.NewServer(newTestServer(t, c).Handler())
	defer backend.Close()
	r := serve.NewRouter(serve.RouterConfig{SampleRate: 1, TreeRing: obs.NewTreeRing(4), AccessLog: obs.NewAccessLog(&routerLog)})
	r.AddBackend("0", strings.TrimPrefix(backend.URL, "http://"))
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	for i := 0; i < 2; i++ { // a render, then a hit on the same page
		resp, err := http.Get(front.URL + "/?page=3")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// The router writes its line after the client has its answer.
	for deadline := time.Now().Add(5 * time.Second); strings.Count(routerLog.String(), "\n") < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	mask := func(log *lockedBuffer) []string {
		masked := clockFields.ReplaceAllString(queueWait.ReplaceAllString(log.String(), ""), "_")
		return strings.Split(strings.TrimSuffix(masked, "\n"), "\n")
	}
	got := append(mask(&backendLog), mask(&routerLog)...)
	want := []string{
		`{_,"request":1,_,"worker":0,"backend":"-","path":"/?page=3","user_agent":"Go-http-client/1.1",_,"status":200,"bytes":7742,"sampled":true,"cycles":183298.2056047375,"cycles_by_category":{"other":160577.5729646696,"hash":3332.258064516129,"heap":1569.6129032258063,"string":8356.387096774193,"regex":9127.060483870968,"kernel":335.3140916808149}}`,
		`{_,"request":2,_,"worker":-1,"backend":"-","path":"/?page=3","user_agent":"Go-http-client/1.1",_,"status":200,"bytes":7742,"sampled":true,"cycles":141.93548387096774,"cycles_by_category":{"hash":141.93548387096774}}`,
		`{_,"request":0,_,"worker":-1,"backend":"0",_,"status":200,"bytes":7742,"sampled":true}`,
		`{_,"request":0,_,"worker":-1,"backend":"0",_,"status":200,"bytes":7742,"sampled":true}`,
	}
	if len(got) != len(want) {
		t.Fatalf("%d access-log lines, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// lockedBuffer is an access log the test reads while a server writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}
