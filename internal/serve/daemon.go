package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"
)

// ListenAndServe is the serving daemons' process edge, the same for alsserve
// and alsfront: bind addr, print "<name>: listening on <bound address><detail>"
// (the line operators and the process harness wait for; ":0" becomes the
// port the kernel picked), serve h until ctx is cancelled, then print
// "<name>: shutting down" and give in-flight requests ten seconds to drain.
func ListenAndServe(ctx context.Context, name, addr string, h http.Handler, detail string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(lis) }()
	fmt.Printf("%s: listening on %s%s\n", name, lis.Addr(), detail)

	select {
	case err := <-done:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		fmt.Printf("%s: shutting down\n", name)
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(shCtx)
	}
}
