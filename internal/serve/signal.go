package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// SetProcs runs the process on one Go P per unit of CPU parallelism in
// its work, at most one per CPU, unless GOMAXPROCS is set, and returns
// the P count: phpserve's workers, or 1 for phprouter's event loop.
func SetProcs(workers int) int {
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(procs(workers, runtime.NumCPU()))
	}
	return runtime.GOMAXPROCS(0)
}

func procs(workers, ncpu int) int { return max(1, min(workers, ncpu)) }

// signalContext is done at the process's first SIGTERM or SIGINT.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
}

// serveUntilSignal serves h on addr until the listener fails or sig (a
// signalContext) is done; then it hands drain the HTTPServer and a
// context bounded by grace, and drain decides what stops in which order
// around Shutdown. A second signal kills the process the default way.
// It returns only the listener's error.
func serveUntilSignal(sig context.Context, name, addr string, h http.Handler, grace time.Duration, drain func(context.Context, *HTTPServer)) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := NewHTTPServer(h)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(lis) }()
	select {
	case err := <-errCh:
		return err
	case <-sig.Done():
	}
	signal.Reset(syscall.SIGTERM, os.Interrupt)
	fmt.Printf("%s: draining (grace %v)\n", name, grace)
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	drain(ctx, hs)
	return nil
}
