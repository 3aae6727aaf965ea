package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	simrank "repro"
	"repro/internal/router"
	"repro/internal/server"
)

// servedOptions is the one configuration every workload serves: paper
// defaults, the default prolog cache, and the tally cache at cacheBytes.
func servedOptions() simrank.Options {
	return simrank.Options{CacheBytes: cacheBytes}
}

// shardProc is one shard as a deployment runs it: its own mmap-loaded
// index behind server.NewShard, serving HTTP and the binary protocol on
// loopback.
type shardProc struct {
	idx      *simrank.Index
	unmap    func() error
	h        *server.Handler
	srv      *http.Server
	binClose func()
}

// topology is S shards behind a router, itself behind an HTTP server.
type topology struct {
	shards []*shardProc
	rt     *router.Router
	srv    *http.Server
	url    string // the router's base URL
}

// setupTimes splits one set-up into its layers, in seconds.
type setupTimes struct {
	build, save, load, probe, total float64
}

// setup builds the index from g, saves it as a v3 snapshot at path, and
// brings up S shards over their own mmap loads plus a probed router.
func setup(ctx context.Context, g *simrank.Graph, path string, shards int) (*topology, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	ix := simrank.BuildIndex(g, servedOptions())
	t1 := time.Now()
	st.build = t1.Sub(t0).Seconds()
	if err := saveIndex(ix, path); err != nil {
		return nil, st, err
	}
	t2 := time.Now()
	st.save = t2.Sub(t1).Seconds()
	idxs := make([]*simrank.Index, shards)
	unmaps := make([]func() error, shards)
	for i := range idxs {
		var err error
		if idxs[i], unmaps[i], err = simrank.LoadIndexMmap(path, servedOptions()); err != nil {
			return nil, st, fmt.Errorf("load shard %d: %w", i, err)
		}
	}
	t3 := time.Now()
	st.load = t3.Sub(t2).Seconds()
	top, err := serve(idxs, unmaps)
	if err != nil {
		return nil, st, err
	}
	t4 := time.Now()
	if err := top.rt.Probe(ctx); err != nil {
		top.stop()
		return nil, st, err
	}
	t5 := time.Now()
	st.probe = t5.Sub(t4).Seconds()
	st.total = t5.Sub(t0).Seconds()
	return top, st, nil
}

func saveIndex(ix *simrank.Index, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := ix.SaveIndex(w); err != nil {
		f.Close()
		return fmt.Errorf("save %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("save %s: %w", path, err)
	}
	return f.Close()
}

// loadFresh mmap-loads a fresh index from path: its caches start empty.
func loadFresh(path string) (*simrank.Index, func() error, error) {
	return simrank.LoadIndexMmap(path, servedOptions())
}

// serve starts one shard per index and a router over them; the router
// still has to be probed. unmaps[i] releases idxs[i] on stop.
func serve(idxs []*simrank.Index, unmaps []func() error) (*topology, error) {
	top := &topology{}
	urls := make([]string, len(idxs))
	for i, idx := range idxs {
		sp := &shardProc{idx: idx, unmap: unmaps[i], h: server.NewShard(idx, i, len(idxs))}
		top.shards = append(top.shards, sp)
		addr, srv, err := listenHTTP(sp.h)
		if err != nil {
			top.stop()
			return nil, err
		}
		sp.srv = srv
		urls[i] = "http://" + addr
		if _, sp.binClose, err = sp.h.StartBin("127.0.0.1:0"); err != nil {
			top.stop()
			return nil, err
		}
	}
	top.rt = router.New(router.Config{Shards: urls})
	addr, srv, err := listenHTTP(top.rt)
	if err != nil {
		top.stop()
		return nil, err
	}
	top.srv, top.url = srv, "http://"+addr
	return top, nil
}

// listenHTTP serves h on an ephemeral loopback port.
func listenHTTP(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "servebench: serve:", err)
		}
	}()
	return ln.Addr().String(), srv, nil
}

// stop shuts the servers down, waiting for in-flight HTTP requests. The
// mappings are released only when no query can still be running on them:
// a binary-protocol request the router gave up on may still be
// computing, so indexes that served binary traffic stay mapped until the
// process exits.
func (t *topology) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if t.srv != nil {
		t.srv.Shutdown(ctx)
	}
	for _, sp := range t.shards {
		if sp.srv != nil {
			sp.srv.Shutdown(ctx)
		}
		if sp.binClose != nil {
			sp.binClose()
		}
	}
}

// release unmaps the shards' indexes. Call it only on a topology whose
// shards never served a query.
func (t *topology) release() {
	for _, sp := range t.shards {
		if sp.unmap != nil {
			sp.unmap()
		}
	}
}
