// helper is the process internal/e2e's own tests drive: one misbehaviour
// per mode.
package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	switch os.Args[1] {
	case "stubborn":
		// Ignores the polite signal: only SIGKILL ends it.
		signal.Ignore(syscall.SIGTERM)
		fmt.Printf("helper: pid %d\n", os.Getpid())
		select {}
	case "exit-early":
		fmt.Println("helper: about to fail")
		fmt.Fprintln(os.Stderr, "helper: the reason, on stderr")
		os.Exit(3)
	case "serve":
		// /metrics is malformed on purpose; /good/metrics is valid.
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, "helper:", err)
			os.Exit(1)
		}
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, "# TYPE als_x counter\nals_x{a=\"1\" 2\n")
		})
		http.HandleFunc("/good/metrics", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, "# TYPE als_x counter\nals_x{a=\"1\"} 2\nals_x{a=\"2\"} 3\n# TYPE als_xy gauge\nals_xy 40\n")
		})
		http.HandleFunc("/json", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"answer":42}`)
		})
		fmt.Printf("helper: listening on %s\n", lis.Addr())
		http.Serve(lis, nil)
	}
}
