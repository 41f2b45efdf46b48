package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// DebugServer is the live-introspection HTTP listener: net/http/pprof
// under /debug/pprof/ (heap, goroutine, CPU profiles of a run in flight)
// and the given registry in Prometheus text format under /metrics — the
// current stage, pass, search bracket, best overflow, and every counter,
// updating while the planner runs.
type DebugServer struct {
	lis  net.Listener
	srv  *http.Server
	done chan struct{}
}

// StartDebugServer binds addr (e.g. "localhost:6060"; ":0" picks a free
// port) and serves in a background goroutine until Close. The registry may
// be shared with a running recorder; snapshots are taken per request.
func StartDebugServer(addr string, reg *Registry) (*DebugServer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", PromHandler(reg))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "lacret debug listener\n\n/debug/pprof/\n/metrics\n")
	})
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listener: %v", err)
	}
	ds := &DebugServer{lis: lis, srv: &http.Server{Handler: mux}, done: make(chan struct{})}
	go func() {
		_ = ds.srv.Serve(lis)
		close(ds.done)
	}()
	return ds, nil
}

// Addr returns the bound address (useful with ":0").
func (d *DebugServer) Addr() string { return d.lis.Addr().String() }

// Close shuts the listener down and waits for the serve goroutine to
// exit, so a caller that closed the server has no goroutine left behind.
func (d *DebugServer) Close() error {
	err := d.srv.Close()
	<-d.done
	return err
}
