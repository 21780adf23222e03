package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/textproto"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// HTTPServer is both servers' HTTP/1.1 front: one goroutine per
// connection reads each request with net/http's parser
// (http.ReadRequest), runs the handler against a ResponseWriter that
// buffers the whole response, and writes status line, headers and body
// with one Write, where net/http's server writes a page through a 4 KB
// buffer in two and keeps a read pending behind every request.
// Framing and connection rules are net/http's, with two differences: a
// response whose handler never flushes is always length-framed (net/http
// chunks one past 2 KB), and a handler panic is answered 500 when
// nothing was written yet (net/http answers nothing). A handler that
// flushes streams, chunked. The client's connection is watched for a
// disconnect only once a request waits on its context's Done, so a
// request that does not wait issues no read beyond its own.
type HTTPServer struct {
	h http.Handler
	// wrap, when non-nil, wraps each accepted connection (tests count
	// the reads and writes through it).
	wrap func(net.Conn) net.Conn

	closing atomic.Bool // Shutdown or Close began: no keep-alive past the current response
	mu      sync.Mutex
	lis     []net.Listener
	conns   map[*conn]bool // true while idle: before a request's first byte
	drained chan struct{}  // closed once closing and conns is empty
}

// NewHTTPServer serves h once Serve is given a listener.
func NewHTTPServer(h http.Handler) *HTTPServer {
	return &HTTPServer{h: h, conns: make(map[*conn]bool)}
}

// Serve accepts connections on lis until Shutdown or Close, which make
// it return http.ErrServerClosed; any other accept error is returned.
func (s *HTTPServer) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		lis.Close()
		return http.ErrServerClosed
	}
	s.lis = append(s.lis, lis)
	s.mu.Unlock()
	var backoff time.Duration
	for {
		nc, err := lis.Accept()
		if err != nil {
			if s.closing.Load() {
				return http.ErrServerClosed
			}
			if ne, ok := err.(interface{ Temporary() bool }); ok && ne.Temporary() { // EMFILE and the like, as net/http
				backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		if s.wrap != nil {
			nc = s.wrap(nc)
		}
		c := &conn{srv: s, nc: nc, remote: nc.RemoteAddr().String()}
		c.r.nc, c.r.limit = nc, math.MaxInt64
		c.r.cond.L = &c.r.mu
		c.w.c = c
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = true
		s.mu.Unlock()
		go c.serve()
	}
}

// Shutdown stops accepting, closes idle connections and waits until
// every in-flight request is answered (each connection closes after its
// last response) or ctx is done, whose error it then returns.
func (s *HTTPServer) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.stopLocked(false)
	done := s.drained
	s.mu.Unlock()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops accepting and closes every connection at once.
func (s *HTTPServer) Close() {
	s.mu.Lock()
	s.stopLocked(true)
	s.mu.Unlock()
}

func (s *HTTPServer) stopLocked(all bool) {
	s.closing.Store(true)
	for _, l := range s.lis {
		l.Close()
	}
	for c, idle := range s.conns {
		if idle || all {
			c.nc.Close()
		}
	}
	if s.drained == nil {
		s.drained = make(chan struct{})
		if len(s.conns) == 0 {
			close(s.drained)
		}
	}
}

// setIdle moves c between idle and active; it reports false once the
// server is closing, when c must close instead.
func (s *HTTPServer) setIdle(c *conn, idle bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing.Load() {
		return false
	}
	s.conns[c] = idle
	return true
}

func (s *HTTPServer) forget(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	if s.drained != nil && len(s.conns) == 0 {
		select {
		case <-s.drained:
		default:
			close(s.drained)
		}
	}
	s.mu.Unlock()
}

// maxHeaderRead bounds a request's header block the way net/http's
// default does; past it the request is answered 431.
const maxHeaderRead = http.DefaultMaxHeaderBytes + 4096

// maxDiscard is how much of a request body the handler left unread is
// read past to keep the connection (net/http's maxPostHandlerReadBytes).
const maxDiscard = 256 << 10

// conn is one client connection; r, br and w are reused by each of its
// requests.
type conn struct {
	srv    *HTTPServer
	nc     net.Conn
	remote string
	r      connReader
	br     *bufio.Reader
	w      response
	werr   error // the first failed write: the connection is done
}

func (c *conn) serve() {
	defer func() {
		c.nc.Close()
		c.r.close()
		c.srv.forget(c)
	}()
	c.br = bufio.NewReaderSize(&c.r, 4<<10)
	for {
		if _, err := c.br.Peek(1); err != nil {
			return
		}
		if !c.srv.setIdle(c, false) {
			return
		}
		c.r.limit = maxHeaderRead
		req, err := http.ReadRequest(c.br)
		hit := c.r.limit <= 0
		c.r.limit = math.MaxInt64
		if err != nil {
			c.rejectRead(err, hit)
			return
		}
		if !c.handle(req) || !c.srv.setIdle(c, true) {
			return
		}
	}
}

// rejectRead answers a request http.ReadRequest could not parse, as
// net/http does, and leaves the connection to close.
func (c *conn) rejectRead(err error, hit bool) {
	ne, _ := err.(net.Error)
	oe, _ := err.(*net.OpError)
	switch {
	case hit:
		c.reject("431 Request Header Fields Too Large")
		// Let the client read the answer before it finds the connection
		// reset under the header bytes it is still sending.
		if cw, ok := c.nc.(interface{ CloseWrite() error }); ok {
			cw.CloseWrite()
			c.nc.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
			io.Copy(io.Discard, c.nc)
		}
	case strings.HasPrefix(err.Error(), "unsupported transfer encoding"): // net/http's error type is unexported
		c.reject("501 Not Implemented", "Unsupported transfer encoding")
	case err == io.EOF, ne != nil && ne.Timeout(), oe != nil && oe.Op == "read":
		// The client went away or the read failed: nobody to answer. (A
		// *url.Error is a net.Error too, but a bad request.)
	default:
		c.reject("400 Bad Request")
	}
}

// reject writes a close-delimited plain-text error, net/http's format
// for requests it answers without running the handler; the body repeats
// the status unless given.
func (c *conn) reject(status string, body ...string) {
	if len(body) == 0 {
		body = []string{status}
	}
	c.write([]byte("HTTP/1.1 " + status + "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n" + body[0]))
}

func (c *conn) write(b []byte) {
	if c.werr == nil {
		_, c.werr = c.nc.Write(b)
	}
}

// handle serves one parsed request and reports whether the connection
// stays open for the next.
func (c *conn) handle(req *http.Request) bool {
	// net/http's request checks, on req.Host: ReadRequest has taken the
	// Host header out.
	switch {
	case req.ProtoMajor != 1:
		c.reject("505 HTTP Version Not Supported: unsupported protocol version")
		return false
	case req.ProtoAtLeast(1, 1) && req.Host == "" && req.Method != http.MethodConnect:
		c.reject("400 Bad Request: missing required Host header")
		return false
	case strings.ContainsFunc(req.Host, invalidHostRune):
		c.reject("400 Bad Request: malformed Host header")
		return false
	}
	req.RemoteAddr = c.remote

	w := &c.w
	w.reset(req)
	ctx := &reqCtx{}
	if req.Body == http.NoBody {
		ctx.c = c // a request with a body is not watched: its reads belong to the handler
	} else {
		w.body = &bodyReader{rc: req.Body, w: w}
		req.Body = w.body
	}
	switch expect := req.Header.Get("Expect"); {
	case hasToken(expect, "100-continue"):
		w.expect = req.ProtoAtLeast(1, 1) && req.ContentLength != 0
		w.canContinue.Store(w.expect)
	case expect != "":
		w.handler.Set("Connection", "close")
		w.WriteHeader(http.StatusExpectationFailed)
		w.finish()
		return false
	}
	w.req = req.WithContext(ctx)
	panicked := c.run(w)
	ctx.cancel() // first: the context is done, so nothing starts a watch now
	c.r.abort()
	if panicked {
		if !w.streaming {
			c.reject("500 Internal Server Error")
		}
		return false
	}
	w.finish()
	return !w.closeAfter && c.werr == nil && c.r.err == nil
}

// run calls the handler and reports whether it panicked. The panic is
// logged the way net/http logs it, http.ErrAbortHandler excepted.
func (c *conn) run(w *response) (panicked bool) {
	defer func() {
		if v := recover(); v != nil {
			panicked = true
			if v != http.ErrAbortHandler {
				fmt.Fprintf(os.Stderr, "http: panic serving %s: %v\n", c.remote, v)
			}
		}
	}()
	c.srv.h.ServeHTTP(w, w.req)
	return false
}

// connReader is what the connection's bufio.Reader reads from: the
// socket under a header-size limit, plus the one byte a disconnect
// watch may have read ahead of the next request.
type connReader struct {
	nc    net.Conn
	limit int64

	mu       sync.Mutex
	cond     sync.Cond
	arm      chan *reqCtx // to the watcher goroutine, started by the first watch
	watching bool         // a watch's read is pending
	aborted  bool         // abort moved the read deadline into the past
	closed   bool
	hasByte  bool
	b        [1]byte
	err      error // what the watch's read returned: the client is gone
}

// Read hands out the watch's byte first, then reads the socket.
func (r *connReader) Read(p []byte) (int, error) {
	r.mu.Lock()
	if r.err != nil || r.hasByte {
		defer r.mu.Unlock()
		if r.hasByte && len(p) > 0 {
			p[0], r.hasByte = r.b[0], false
			return 1, nil
		}
		return 0, r.err
	}
	r.mu.Unlock()
	if r.limit <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.limit {
		p = p[:r.limit]
	}
	n, err := r.nc.Read(p)
	r.limit -= int64(n)
	return n, err
}

// watch has the connection's watcher read once for x: a close or reset
// cancels x, a byte is a pipelined request and is kept for the next
// Read. The watcher is one goroutine per connection, started by its
// first watch, so arming allocates nothing.
func (r *connReader) watch(x *reqCtx) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.watching || r.hasByte || r.err != nil || r.closed {
		return
	}
	r.watching = true
	if r.arm == nil {
		r.arm = make(chan *reqCtx, 1)
		go r.watcher()
	}
	r.arm <- x
}

func (r *connReader) watcher() {
	for x := range r.arm {
		n, err := r.nc.Read(r.b[:])
		r.mu.Lock()
		r.hasByte = n == 1
		gone := err != nil && !(r.aborted && errors.Is(err, os.ErrDeadlineExceeded))
		if gone {
			r.err = err
		}
		r.watching, r.aborted = false, false
		r.mu.Unlock()
		r.cond.Broadcast()
		if gone {
			x.cancel()
		}
	}
}

// abort ends a pending watch and waits for its read to return.
func (r *connReader) abort() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.watching {
		return
	}
	r.aborted = true
	r.nc.SetReadDeadline(time.Unix(1, 0))
	for r.watching {
		r.cond.Wait()
	}
	r.nc.SetReadDeadline(time.Time{})
}

// close ends the watcher once the connection is closed.
func (r *connReader) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	if r.arm != nil {
		close(r.arm)
	}
}

// reqCtx is a request's context. It is done when the client goes away
// or the handler returns, but it watches the connection only once
// something waits on it: Pool.AcquireCtx asks for Done only when the
// free list is empty, and the hop expires its backend connection
// through it only once the backend is late. A request that does not
// wait costs no read and no allocation beyond the context itself.
type reqCtx struct {
	c      *conn // nil: not watched
	mu     sync.Mutex
	done   chan struct{} // made by the first Done
	err    error
	hop    net.Conn // a backend connection to expire on cancel (hop.exchange)
	afters []func() // context.AfterFunc's and child contexts' callbacks
}

// Deadline reports none: a request has no deadline of its own.
func (x *reqCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

// Value holds nothing.
func (x *reqCtx) Value(any) any { return nil }

// Done starts the watch on first call.
func (x *reqCtx) Done() <-chan struct{} {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.done == nil {
		x.done = make(chan struct{})
		if x.err != nil {
			close(x.done)
		} else if x.c != nil {
			x.c.r.watch(x)
		}
	}
	return x.done
}

// Err is nil until the client left or the handler returned.
func (x *reqCtx) Err() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.err
}

// reqCtx is what package context calls an afterFuncer: a child context
// (the scheduler's deadline) or context.AfterFunc finds this method by
// interface assertion and hooks onto it instead of running a goroutine
// that waits on Done.
var _ interface{ AfterFunc(func()) func() bool } = (*reqCtx)(nil)

// AfterFunc runs f in its own goroutine once the context is done.
func (x *reqCtx) AfterFunc(f func()) (stop func() bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.err != nil {
		go f()
		return func() bool { return false }
	}
	if x.c != nil {
		x.c.r.watch(x)
	}
	i := len(x.afters)
	x.afters = append(x.afters, f)
	return func() bool {
		x.mu.Lock()
		defer x.mu.Unlock()
		if x.err != nil || x.afters[i] == nil {
			return false
		}
		x.afters[i] = nil
		return true
	}
}

// expire has a client that leaves move c's deadline into the past: the
// hop's exchange with a late backend ends at once.
func (x *reqCtx) expire(c net.Conn) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.err != nil {
		c.SetDeadline(time.Unix(1, 0))
		return
	}
	x.hop = c
	if x.c != nil {
		x.c.r.watch(x)
	}
}

// unexpire undoes expire and reports whether the request is still live.
func (x *reqCtx) unexpire() bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.hop = nil
	return x.err == nil
}

// cancel ends the context: the client left, or the handler returned.
func (x *reqCtx) cancel() {
	x.mu.Lock()
	if x.err != nil {
		x.mu.Unlock()
		return
	}
	x.err = context.Canceled
	if x.done != nil {
		close(x.done)
	}
	if x.hop != nil {
		x.hop.SetDeadline(time.Unix(1, 0))
	}
	afters := x.afters
	x.mu.Unlock()
	for _, f := range afters {
		if f != nil {
			go f()
		}
	}
}

// bodyReader is a request body as the handler sees it: the first Read
// answers Expect: 100-continue, and Close leaves the rest to the loop,
// which reads at most maxDiscard of it to keep the connection.
type bodyReader struct {
	rc          io.ReadCloser
	w           *response
	eof, closed bool
}

// Read sends the 100 Continue a waiting client asked for, then reads.
func (b *bodyReader) Read(p []byte) (int, error) {
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	if b.w.canContinue.Swap(false) {
		b.w.c.write([]byte("HTTP/1.1 100 Continue\r\n\r\n"))
	}
	n, err := b.rc.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

// Close stops the handler's reads; the loop drains what it left.
func (b *bodyReader) Close() error {
	b.closed = true
	return nil
}

// response is the connection's ResponseWriter, reset per request. The
// body stays in buf until the handler returns (or flushes); header
// freezes the handler's header map at WriteHeader, as net/http does.
type response struct {
	c    *conn
	req  *http.Request
	body *bodyReader // nil for a request without one

	handler, sent http.Header
	status        int
	wroteHeader   bool
	streaming     bool // a Flush sent the header
	chunking      bool
	closeAfter    bool
	expect        bool // the body answers Expect: 100-continue
	canContinue   atomic.Bool
	contentLength int64 // the handler's Content-Length, -1 if none
	written       int64

	is11, isHEAD, wants10KeepAlive, wantsClose bool

	buf  []byte   // body bytes not yet on the wire
	out  []byte   // the bytes of one write
	keys []string // header keys, sorted
}

// maxKeep is the largest buffer a connection keeps between requests.
const maxKeep = 1 << 20

func (w *response) reset(req *http.Request) {
	if w.handler == nil {
		w.handler, w.sent = make(http.Header), make(http.Header)
	}
	clear(w.handler)
	if cap(w.buf) > maxKeep {
		w.buf = nil
	}
	if cap(w.out) > maxKeep {
		w.out = nil
	}
	w.req, w.body, w.status, w.buf = req, nil, 0, w.buf[:0]
	w.wroteHeader, w.streaming, w.chunking, w.closeAfter, w.expect = false, false, false, false, false
	w.canContinue.Store(false)
	w.contentLength, w.written = -1, 0
	conn := req.Header.Get("Connection")
	w.is11, w.isHEAD = req.ProtoAtLeast(1, 1), req.Method == http.MethodHead
	w.wants10KeepAlive = req.ProtoMajor == 1 && req.ProtoMinor == 0 && hasToken(conn, "keep-alive")
	w.wantsClose = req.Close || hasToken(conn, "close")
}

// Header is the handler's header map, reused by the connection.
func (w *response) Header() http.Header { return w.handler }

// WriteHeader fixes the status and freezes the header, as net/http
// does. Every status is final: no handler here sends a 1xx.
func (w *response) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	w.canContinue.Store(false)
	w.wroteHeader, w.status = true, code
	clear(w.sent)
	for k, v := range w.handler {
		w.sent[k] = v
	}
	if cl := w.sent.Get("Content-Length"); cl != "" {
		if v, err := strconv.ParseInt(cl, 10, 64); err == nil && v >= 0 {
			w.contentLength = v
		} else {
			w.sent.Del("Content-Length")
		}
	}
}

// Write buffers p for the response's one write.
func (w *response) Write(p []byte) (int, error) {
	if err := w.admit(len(p)); err != nil || len(p) == 0 {
		return 0, err
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// admit counts n more body bytes against the status and the declared
// length, writing the implicit 200 first.
func (w *response) admit(n int) error {
	w.canContinue.Store(false)
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if n == 0 {
		return nil
	}
	if !bodyAllowedForStatus(w.status) {
		return http.ErrBodyNotAllowed
	}
	w.written += int64(n)
	if w.contentLength != -1 && w.written > w.contentLength {
		return http.ErrContentLength
	}
	return nil
}

// ReadFrom reads src to its end straight into the response buffer, so
// the router relays a backend body with one copy.
func (w *response) ReadFrom(src io.Reader) (int64, error) {
	var total int64
	for {
		w.buf = slices.Grow(w.buf, 4<<10)
		n, err := src.Read(w.buf[len(w.buf):cap(w.buf)])
		if aerr := w.admit(n); aerr != nil {
			return total, aerr
		}
		w.buf, total = w.buf[:len(w.buf)+n], total+int64(n)
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// Flush sends the header, chunked unless the handler declared a length,
// and then what is buffered; the response streams from here on.
func (w *response) Flush() {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	out := w.out[:0]
	if !w.streaming {
		out = w.appendHeader(out, false)
		w.streaming = true
	}
	w.out = w.appendBody(out)
	w.c.write(w.out)
}

// finish puts the rest of the response on the wire in one write.
func (w *response) finish() {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	out := w.out[:0]
	if !w.streaming {
		out = w.appendHeader(out, true)
	}
	out = w.appendBody(out)
	if w.streaming && w.chunking {
		out = append(out, "0\r\n\r\n"...)
	}
	w.out = out
	w.c.write(out)
	if !w.isHEAD && w.contentLength != -1 && bodyAllowedForStatus(w.status) && w.written != w.contentLength {
		w.closeAfter = true // short of its declared length: the stream is out of step
	}
}

// appendBody appends the buffered body, as one chunk when chunking,
// and empties the buffer.
func (w *response) appendBody(out []byte) []byte {
	if len(w.buf) > 0 && !w.isHEAD && bodyAllowedForStatus(w.status) {
		if w.chunking {
			out = append(strconv.AppendInt(out, int64(len(w.buf)), 16), "\r\n"...)
			out = append(append(out, w.buf...), "\r\n"...)
		} else {
			out = append(out, w.buf...)
		}
	}
	w.buf = w.buf[:0]
	return out
}

// appendHeader appends the status line and header block with net/http's
// chunkWriter.writeHeader decisions, done meaning the handler has
// returned and buf is the whole body; only the framing is the loop's
// own (a handler's Transfer-Encoding is dropped). It also reads past a
// request body the handler left unread, before anything is written.
func (w *response) appendHeader(out []byte, done bool) []byte {
	h, code := w.sent, w.status
	keepAlives := !w.c.srv.closing.Load()
	h.Del("Transfer-Encoding") // the loop frames the body itself
	setLength := int64(-1)
	var setType, setConn, setTE string
	if done && bodyAllowedForStatus(code) && h.Get("Content-Length") == "" && (!w.isHEAD || len(w.buf) > 0) {
		w.contentLength = int64(len(w.buf))
		setLength = w.contentLength
	}
	hasCL := w.contentLength != -1
	if _, ok := h["Connection"]; w.wants10KeepAlive && (w.isHEAD || hasCL || !bodyAllowedForStatus(code)) {
		if !ok {
			setConn = "keep-alive"
		}
	} else if !w.is11 || w.wantsClose {
		w.closeAfter = true
	}
	if h.Get("Connection") == "close" || !keepAlives {
		w.closeAfter = true
	}
	if b := w.body; b != nil && w.expect && !b.eof {
		w.closeAfter = true // the body may never come: 100-continue was not answered
	}
	if b := w.body; b != nil && w.req.ContentLength != 0 && !b.eof && !w.closeAfter {
		if _, err := io.CopyN(io.Discard, b.rc, maxDiscard+1); err == nil {
			w.closeAfter = true
			h.Del("Connection")
			setConn = "close"
		} else if err != io.EOF {
			w.closeAfter = true
		}
	}
	if bodyAllowedForStatus(code) {
		_, haveType := h["Content-Type"]
		if !haveType && h.Get("Content-Encoding") == "" && len(w.buf) > 0 {
			setType = http.DetectContentType(w.buf)
		}
	} else {
		if code == http.StatusNotModified {
			h.Del("Content-Type")
		}
		h.Del("Content-Length")
	}
	switch {
	case w.isHEAD || !bodyAllowedForStatus(code) || hasCL:
	case w.is11:
		w.chunking, setTE = true, "chunked"
	default:
		w.closeAfter = true // HTTP/1.0 streaming without a length: the close ends the body
	}
	if w.chunking {
		h.Del("Content-Length")
	}
	if w.closeAfter && (!keepAlives || !hasToken(h.Get("Connection"), "close")) {
		h.Del("Connection")
		if w.is11 {
			setConn = "close"
		}
	}

	out = appendHeaders(appendStatusLine(out, w.is11, code), h, &w.keys)
	if _, ok := h["Date"]; !ok {
		out = time.Now().UTC().AppendFormat(append(out, "Date: "...), http.TimeFormat)
		out = append(out, "\r\n"...)
	}
	if setLength >= 0 {
		out = append(strconv.AppendInt(append(out, "Content-Length: "...), setLength, 10), "\r\n"...)
	}
	for _, kv := range [...][2]string{{"Content-Type", setType}, {"Connection", setConn}, {"Transfer-Encoding", setTE}} {
		if kv[1] != "" {
			out = append(append(append(append(out, kv[0]...), ": "...), kv[1]...), "\r\n"...)
		}
	}
	return append(out, "\r\n"...)
}

func appendStatusLine(out []byte, is11 bool, code int) []byte {
	if is11 {
		out = append(out, "HTTP/1.1 "...)
	} else {
		out = append(out, "HTTP/1.0 "...)
	}
	if text := http.StatusText(code); text != "" {
		out = append(append(strconv.AppendInt(out, int64(code), 10), ' '), text...)
	} else {
		out = fmt.Appendf(out, "%03d status code %d", code, code)
	}
	return append(out, "\r\n"...)
}

// appendHeaders appends h in key order, as http.Header.Write does:
// invalid names are dropped and line breaks in values become spaces.
func appendHeaders(out []byte, h http.Header, keys *[]string) []byte {
	ks := (*keys)[:0]
	for k := range h {
		if k != "" && !strings.ContainsFunc(k, invalidTokenRune) {
			ks = append(ks, k)
		}
	}
	slices.Sort(ks)
	for _, k := range ks {
		for _, v := range h[k] {
			if strings.ContainsAny(v, "\r\n") {
				v = strings.NewReplacer("\r\n", " ", "\r", " ", "\n", " ").Replace(v)
			}
			out = append(append(append(append(out, k...), ": "...), textproto.TrimString(v)...), "\r\n"...)
		}
	}
	*keys = ks[:0]
	return out
}

func bodyAllowedForStatus(code int) bool {
	return !(code >= 100 && code <= 199 || code == http.StatusNoContent || code == http.StatusNotModified)
}

// hasToken reports whether the comma-separated header value v lists
// token, case-insensitively.
func hasToken(v, token string) bool {
	for v != "" {
		var f string
		f, v, _ = strings.Cut(v, ",")
		if strings.EqualFold(textproto.TrimString(f), token) {
			return true
		}
	}
	return false
}

// invalidTokenRune is true for a rune no header name may hold (RFC 7230
// tchar).
func invalidTokenRune(r rune) bool {
	return r >= 0x7f || r <= ' ' || strings.ContainsRune("\"(),/:;<=>?@[\\]{}", r)
}

// invalidHostRune is true for a rune net/http refuses in a Host header.
func invalidHostRune(r rune) bool {
	return !('0' <= r && r <= '9' || 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || strings.ContainsRune("!$%&'()*+,-.:;=[]_~", r))
}
