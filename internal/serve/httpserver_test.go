package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// diffMux is the handler the differential test and the fuzz target
// serve: a small page, a body echo, a handler that leaves the body
// unread, one that panics and one that flushes.
func diffMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Path", r.URL.EscapedPath()) // the decoded path may hold bytes no header value can
		fmt.Fprintf(w, "<html>%s %s</html>\n", r.Method, r.URL.RequestURI())
	})
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		fmt.Fprintf(w, "%d bytes %q %v", len(b), b, err)
	})
	mux.HandleFunc("/unread", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "body left unread")
	})
	mux.HandleFunc("/panic", func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	})
	mux.HandleFunc("/flush", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "first ")
		w.(http.Flusher).Flush()
		io.WriteString(w, "second")
	})
	return mux
}

// answer is what a client saw on one connection: each response up to
// the last, and whether the server then kept the connection open.
type answer struct {
	status []int
	header []http.Header // Date removed; framing folded in as X-Framing
	body   []string
	open   bool
}

// exchangeRaw writes raw on a fresh connection to addr and reads n final
// responses (HEAD's when head), then probes whether the server keeps the
// connection open.
func exchangeRaw(t *testing.T, addr, raw string, n int, head bool) answer {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go c.Write([]byte(raw)) // an over-limit header may be refused before it is all sent
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(c)
	var a answer
	var req *http.Request
	if head {
		req = &http.Request{Method: http.MethodHead}
	}
	for final := 0; final < n; {
		resp, err := http.ReadResponse(br, req)
		if err != nil {
			break // the oracle answers a panic with nothing
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%q: reading the body: %v", raw, err)
		}
		h := resp.Header.Clone()
		h.Del("Date")
		h.Set("X-Framing", fmt.Sprintf("%v %d", resp.TransferEncoding, resp.ContentLength))
		a.status, a.header, a.body = append(a.status, resp.StatusCode), append(a.header, h), append(a.body, string(body))
		if resp.StatusCode >= 200 {
			final++
		}
	}
	c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	_, err = br.ReadByte()
	var ne net.Error
	a.open = errors.As(err, &ne) && ne.Timeout()
	return a
}

// TestHTTPServerMatchesNetHTTP serves one mux through net/http's server,
// the oracle, and through HTTPServer, and compares every answer: status,
// body, headers but Date, framing, and whether the connection stays
// open. The one intended difference: net/http answers a handler panic
// with nothing, HTTPServer with 500; both close.
func TestHTTPServerMatchesNetHTTP(t *testing.T) {
	oracle := httptest.NewUnstartedServer(diffMux())
	oracle.Config.ErrorLog = log.New(io.Discard, "", 0) // its panic stack
	oracle.Start()
	defer oracle.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHTTPServer(diffMux())
	go hs.Serve(lis)
	defer hs.Close()

	big := "GET / HTTP/1.1\r\nHost: x\r\nX-Big: " + strings.Repeat("a", http.DefaultMaxHeaderBytes+8192) + "\r\n\r\n"
	for _, tc := range []struct {
		name, raw string
		n         int
		head      bool
	}{
		{"GET", "GET /?page=3 HTTP/1.1\r\nHost: x\r\n\r\n", 1, false},
		{"HEAD", "HEAD / HTTP/1.1\r\nHost: x\r\n\r\n", 1, true},
		{"POST length", "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello", 1, false},
		{"POST chunked", "POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", 1, false},
		{"POST unread", "POST /unread HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello", 1, false},
		{"POST unread past the bound", "POST /unread HTTP/1.1\r\nHost: x\r\nContent-Length: 300000\r\n\r\n" + strings.Repeat("b", 300000), 1, false},
		{"Connection: close", "GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", 1, false},
		{"HTTP/1.0", "GET / HTTP/1.0\r\n\r\n", 1, false},
		{"HTTP/1.0 keep-alive", "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", 1, false},
		{"Expect: 100-continue", "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\nhello", 1, false},
		{"Expect: other", "GET / HTTP/1.1\r\nHost: x\r\nExpect: teapot\r\n\r\n", 1, false},
		{"pipelined", "GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\n", 2, false},
		{"no Host", "GET / HTTP/1.1\r\n\r\n", 1, false},
		{"header over the limit", big, 1, false},
		{"malformed request line", "GARBAGE\r\n\r\n", 1, false},
		{"unsupported transfer encoding", "POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: gzip\r\n\r\n", 1, false},
		{"panic", "GET /panic HTTP/1.1\r\nHost: x\r\n\r\n", 1, false},
		{"flush", "GET /flush HTTP/1.1\r\nHost: x\r\n\r\n", 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := exchangeRaw(t, oracle.Listener.Addr().String(), tc.raw, tc.n, tc.head)
			got := exchangeRaw(t, lis.Addr().String(), tc.raw, tc.n, tc.head)
			if tc.name == "panic" {
				if len(want.status) != 0 || want.open || !slices.Equal(got.status, []int{500}) || got.open {
					t.Fatalf("panic: net/http %v open=%v, HTTPServer %v open=%v; want nothing and 500, both closed",
						want.status, want.open, got.status, got.open)
				}
				return
			}
			if len(want.status) == 0 {
				t.Fatalf("the oracle gave no answer")
			}
			if !slices.Equal(got.status, want.status) || !slices.Equal(got.body, want.body) || got.open != want.open {
				t.Errorf("HTTPServer %v %q open=%v, net/http %v %q open=%v", got.status, got.body, got.open, want.status, want.body, want.open)
			}
			for i := range min(len(got.header), len(want.header)) {
				if fmt.Sprint(got.header[i]) != fmt.Sprint(want.header[i]) {
					t.Errorf("response %d headers:\n HTTPServer %v\n net/http   %v", i, got.header[i], want.header[i])
				}
			}
		})
	}
}

// pipeListener hands out one net.Pipe server end per Accept.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.TCPAddr{} }

// eofReader records whether a read ran into the end of its input.
type eofReader struct {
	r   io.Reader
	hit bool
}

func (e *eofReader) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF {
		e.hit = true
	}
	return n, err
}

// FuzzServeConn feeds arbitrary bytes to HTTPServer over a net.Pipe. The
// loop must not panic or hang, every answer must parse with
// http.ReadResponse, an answer that closes must be followed by the
// close, and input the parser refuses must be answered by a close.
func FuzzServeConn(f *testing.F) {
	for _, seed := range []string{
		"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
		"HEAD / HTTP/1.1\r\nHost: x\r\n\r\nGET /flush HTTP/1.1\r\nHost: x\r\n\r\n",
		"POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
		"POST /unread HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nExpect: 100-continue\r\n\r\nbody",
		"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /echo HTTP/1.0\r\n\r\n",
		"GET /panic HTTP/1.1\r\nHost: x\r\n\r\n",
		"GARBAGE\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		lis := &pipeListener{conns: make(chan net.Conn, 1), done: make(chan struct{})}
		hs := NewHTTPServer(diffMux())
		go hs.Serve(lis)
		client, server := net.Pipe()
		lis.conns <- server
		go client.Write(in)

		// The requests as the same parser reads them, to pair each answer
		// with its method and to know where the input stops parsing.
		src := &eofReader{r: bytes.NewReader(in)}
		reqs := bufio.NewReader(src)
		br := bufio.NewReader(client)
		client.SetReadDeadline(time.Now().Add(2 * time.Second))
		for {
			src.hit = false
			req, perr := http.ReadRequest(reqs)
			if perr == io.EOF {
				break // every request answered; the loop waits for the next
			}
			if perr == nil {
				_, perr = io.Copy(io.Discard, req.Body)
			}
			// Refused, as opposed to cut short: the parser failed without
			// asking for a byte past the input, so the server, which has
			// the same bytes, fails the same way. Where the parser ran
			// into the end (a trailer it peeks past, say), the server
			// waits for more instead.
			refused := perr != nil && !src.hit
			if perr != nil && !refused {
				break // cut short: the loop waits for the rest
			}
			if refused {
				req = nil
			}
			resp, err := http.ReadResponse(br, req)
			for err == nil && resp.StatusCode < 200 {
				resp, err = http.ReadResponse(br, req)
			}
			if err != nil {
				t.Fatalf("no parseable answer (request error %v): %v", perr, err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatalf("answer body: %v", err)
			}
			if refused && !resp.Close {
				t.Fatalf("input the parser refuses (%v) was answered %d without a close", perr, resp.StatusCode)
			}
			if resp.Close {
				// Up to the close: a request refused before its handler ran
				// gets a close-delimited body, HEAD or not.
				if _, err := io.Copy(io.Discard, br); err != nil {
					t.Fatalf("an answer that closes was not followed by the close: %v", err)
				}
				break
			}
		}
		client.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			t.Fatalf("the loop did not finish with the connection: %v", err)
		}
	})
}

// TestHTTPServerClientGoneWhileQueued: a request queued behind the only
// worker whose client closes is shed as canceled, the 499 is the one
// access-log line, and the server goes on serving.
func TestHTTPServerClientGoneWhileQueued(t *testing.T) {
	cfg := testClusterConfig()
	cfg.Backend, cfg.CacheCapacity, cfg.Timeout, cfg.DBWait = -1, 0, 0, 300*time.Millisecond
	var log lockedBuffer
	cfg.AccessLog = &log
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := serveOn(t, srv.Handler())
	get := func() chan int {
		status := make(chan int, 1)
		go func() {
			resp, err := http.Get("http://" + addr + "/?page=1")
			if err != nil {
				status <- -1
				return
			}
			resp.Body.Close()
			status <- resp.StatusCode
		}()
		return status
	}
	first := get()
	waitFor(t, 5*time.Second, func() bool { return srv.Pool.Idle() == 0 })
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(c, "GET /?page=2 HTTP/1.1\r\nHost: x\r\n\r\n")
	waitFor(t, 5*time.Second, func() bool { return srv.Sched.QueueDepth() == 1 })
	c.Close()
	waitFor(t, 5*time.Second, func() bool { return srv.Sched.Stats().ShedCanceled == 1 })
	if s := <-first; s != http.StatusOK {
		t.Fatalf("the request holding the worker answered %d", s)
	}
	if s := <-get(); s != http.StatusOK {
		t.Fatalf("the request after the disconnect answered %d", s)
	}
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `"status":499`) {
		t.Fatalf("access log %q, want one 499 line", lines)
	}
}

// TestHTTPServerClientGoneWhileBackendStalls: a client that closes while
// the router waits on a stalled backend cancels the exchange: the
// backend's connection closes, nothing is pooled, and the backend is
// neither rerouted from nor evicted.
func TestHTTPServerClientGoneWhileBackendStalls(t *testing.T) {
	arrived, gone := make(chan struct{}), make(chan struct{})
	backend, _ := hopBackend(t, func(w http.ResponseWriter, req *http.Request) {
		close(arrived)
		select {
		case <-req.Context().Done():
			close(gone)
		case <-time.After(20 * time.Second):
		}
	}, nil)
	r := NewRouter(RouterConfig{})
	r.AddBackend("0", backend)
	c, err := net.Dial("tcp", serveOn(t, r.Handler()))
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(c, "GET /?page=1 HTTP/1.1\r\nHost: x\r\n\r\n")
	<-arrived
	c.Close()
	select {
	case <-gone:
	case <-time.After(5 * time.Second):
		t.Fatal("the backend connection stayed open after the client left")
	}
	h := r.transport.(*hop)
	waitFor(t, 5*time.Second, func() bool { return r.Stats().Backends[0].Inflight == 0 })
	h.mu.Lock()
	idle := len(h.idle[backend])
	h.mu.Unlock()
	if st := r.Stats(); idle != 0 || st.Retries != 0 || !st.Backends[0].Up {
		t.Fatalf("%d pooled connections, %d reroutes, backend up %v; want 0, 0, true", idle, st.Retries, st.Backends[0].Up)
	}
}

// countedConn counts the Read and Write calls on one connection end.
type countedConn struct {
	net.Conn
	mu            sync.Mutex
	reads, writes int
}

func (c *countedConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.reads++
	c.mu.Unlock()
	return c.Conn.Read(p)
}

func (c *countedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// TestLoopbackSyscallsPerRequest counts Read and Write calls at every
// connection end of a router and 2 backends, one keep-alive client per
// stream, without a scheduler deadline (the way phpserve runs by
// default). Each response and each forwarded request is one write. A
// backend request waits on nothing, so it is one read (plus the one per
// connection that sees it close): the loop arms no disconnect watch for
// it. The other ends' reads vary by a few per run with close timing and
// with answers late enough for the hop to watch the client, so they are
// logged, not held.
func TestLoopbackSyscallsPerRequest(t *testing.T) {
	const requests = 200
	var mu sync.Mutex
	var conns []*countedConn
	cfg := testClusterConfig()
	cfg.Timeout = 0
	cl, err := startLoopback(2, cfg, RouterConfig{}, func(nc net.Conn) net.Conn {
		c := &countedConn{Conn: nc}
		mu.Lock()
		conns = append(conns, c)
		mu.Unlock()
		return c
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunZipf(context.Background(), requests); err != nil {
		cl.Close()
		t.Fatal(err)
	}
	cl.Close()
	backends := map[string]bool{}
	for _, b := range cl.Router.Stats().Backends {
		backends[b.Addr] = true
	}
	type counts struct{ conns, reads, writes int }
	ends := map[string]*counts{"client": {}, "router front": {}, "router to backend": {}, "backend": {}}
	mu.Lock()
	for _, c := range conns {
		var end string
		switch local, remote := c.LocalAddr().String(), c.RemoteAddr().String(); {
		case backends[local]:
			end = "backend"
		case backends[remote]:
			end = "router to backend"
		case remote == cl.front:
			end = "client"
		default:
			end = "router front"
		}
		c.mu.Lock()
		e := ends[end]
		e.conns, e.reads, e.writes = e.conns+1, e.reads+c.reads, e.writes+c.writes
		c.mu.Unlock()
	}
	mu.Unlock()
	for _, end := range []string{"client", "router front", "router to backend", "backend"} {
		e := ends[end]
		t.Logf("%-17s %d conns, %.3f reads and %.3f writes per request", end, e.conns, float64(e.reads)/requests, float64(e.writes)/requests)
		if e.conns != 2 || e.writes != requests {
			t.Errorf("%s: %d connections and %d writes for %d requests, want 2 and one write per request", end, e.conns, e.writes, requests)
		}
	}
	if b := ends["backend"]; b.reads < requests || b.reads > requests+b.conns {
		t.Errorf("backends read %d times for %d requests on %d connections, want one read per request and at most one per connection more", b.reads, requests, b.conns)
	}
}

// serveOn serves h through HTTPServer on a loopback port until the test
// ends and returns its address.
func serveOn(t *testing.T, h http.Handler) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHTTPServer(h)
	go hs.Serve(lis)
	t.Cleanup(hs.Close)
	return lis.Addr().String()
}

// lockedBuffer is an access log the test reads while the server writes.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}
