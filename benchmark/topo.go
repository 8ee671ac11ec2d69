package main

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net"

	webtable "repro"
	"repro/internal/dist"
	"repro/internal/server"
)

// topology is one serving topology brought up in-process over loopback
// HTTP: a single node, or shard servers behind a router.
type topology struct {
	url string
	// svcs are the served services: the single node's, or one per shard
	// in shard order with asns their assignments.
	svcs  []*webtable.Service
	asns  []webtable.ShardAssignment
	stops []func()
}

// stop drains every server and closes every service, newest first, and
// returns once all have ended.
func (t *topology) stop() {
	for i := len(t.stops) - 1; i >= 0; i-- {
		t.stops[i]()
	}
	t.stops = nil
}

// serveOn starts a Serve-style loop on a loopback listener and returns
// its base URL and a stop func that triggers drain and waits for exit.
func serveOn(ctx context.Context, serve func(context.Context, net.Listener) error) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- serve(sctx, ln) }()
	stop := func() {
		cancel()
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// start serves a snapshot from a single node, or from shards behind a
// router when routed.
func start(ctx context.Context, snap []byte, routed bool) (*topology, error) {
	if routed {
		return startCluster(ctx, snap, shards)
	}
	return startSingle(ctx, snap)
}

// startSingle loads a snapshot into one service and serves it as a
// single node.
func startSingle(ctx context.Context, snap []byte) (*topology, error) {
	svc, err := webtable.LoadService(ctx, bytes.NewReader(snap))
	if err != nil {
		return nil, err
	}
	return serveSingle(ctx, svc)
}

// serveSingle serves svc as a single node; stopping the topology closes
// svc.
func serveSingle(ctx context.Context, svc *webtable.Service) (*topology, error) {
	url, stop, err := serveOn(ctx, server.New(svc, server.WithLogger(quietLogger())).Serve)
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &topology{url: url, svcs: []*webtable.Service{svc}, stops: []func(){func() { stop(); svc.Close() }}}, nil
}

// loadShards loads the shards of a snapshot, one service per shard,
// recording a span around each load (rec may be nil).
func loadShards(ctx context.Context, rec *recorder, rep int64, snap []byte, shards int) ([]*webtable.Service, []webtable.ShardAssignment, error) {
	svcs := make([]*webtable.Service, 0, shards)
	asns := make([]webtable.ShardAssignment, 0, shards)
	for i := 0; i < shards; i++ {
		id := rec.begin("snapshot.LoadServiceShard", -1, rep)
		svc, asn, err := webtable.LoadServiceShard(ctx, bytes.NewReader(snap), i, shards)
		rec.end(id, tally{"shard", int64(i)})
		if err != nil {
			closeEach(svcs)
			return nil, nil, err
		}
		svcs = append(svcs, svc)
		asns = append(asns, asn)
	}
	return svcs, asns, nil
}

// startCluster loads the shards of a snapshot and serves them behind a
// router.
func startCluster(ctx context.Context, snap []byte, shards int) (*topology, error) {
	svcs, asns, err := loadShards(ctx, nil, 0, snap, shards)
	if err != nil {
		return nil, err
	}
	return serveCluster(ctx, svcs, asns)
}

// serveCluster serves each shard service from its own shard server and
// puts a router in front; stopping the topology closes the services.
func serveCluster(ctx context.Context, svcs []*webtable.Service, asns []webtable.ShardAssignment) (*topology, error) {
	t := &topology{svcs: svcs, asns: asns}
	urls := make([]string, len(svcs))
	for i, svc := range svcs {
		sh := dist.NewShardServer(svc, asns[i], i, len(svcs), dist.WithLogger(quietLogger()))
		url, stop, err := serveOn(ctx, sh.Serve)
		if err != nil {
			closeEach(svcs[i:])
			t.stop()
			return nil, err
		}
		urls[i] = url
		t.stops = append(t.stops, func() { stop(); svc.Close() })
	}
	rt := dist.NewRouter(&dist.Client{URLs: urls}, dist.WithLogger(quietLogger()))
	url, stop, err := serveOn(ctx, rt.Serve)
	if err != nil {
		t.stop()
		return nil, err
	}
	t.url = url
	t.stops = append(t.stops, stop)
	return t, nil
}

func closeEach(svcs []*webtable.Service) {
	for _, s := range svcs {
		s.Close()
	}
}

// quietLogger silences the servers' per-request log lines.
func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }
