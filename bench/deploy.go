package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"mie/internal/core"
	"mie/internal/obs"
	"mie/internal/replica"
	"mie/internal/router"
	"mie/internal/server"
	"mie/internal/wal"
)

// Node names of the deployment, as the router knows them.
const (
	nodeLeader   = "leader"
	nodeFollower = "follower"
)

// deployment is the real deployment shape in one process over loopback TCP:
// a durable leader (sync=always) with a replication hub, one durable
// follower replicating from it and forwarding mutations to it, and a
// consistent-hash router over both. It is built from public constructors
// only and has no relays, pacing or injected delay: the numbers are the
// program's own cost on this machine, not a network's.
//
// Every tier gets its own registry so that per-node request counts and the
// benchmark's own client byte counters are not mixed with the router's
// backend connections.
type deployment struct {
	dir string

	leaderSvc   *core.Service
	followerSvc *core.Service
	hub         *replica.Hub
	follower    *replica.Follower
	fwd         *replica.Forwarder
	leaderSrv   *server.Server
	followerSrv *server.Server
	rt          *router.Router

	leaderReg   *obs.Registry
	followerReg *obs.Registry
	replReg     *obs.Registry
	routerReg   *obs.Registry
}

func (d *deployment) leaderDir() string { return filepath.Join(d.dir, nodeLeader) }

// boot starts the deployment under dir. On error everything already started
// is stopped again.
func boot(dir string) (d *deployment, err error) {
	d = &deployment{
		dir:         dir,
		leaderReg:   obs.NewRegistry(),
		followerReg: obs.NewRegistry(),
		replReg:     obs.NewRegistry(),
		routerReg:   obs.NewRegistry(),
	}
	defer func() {
		if err != nil {
			_ = d.Close()
			d = nil
		}
	}()

	if d.leaderSvc, _, err = core.OpenService(core.ServiceOptions{Dir: d.leaderDir(), Sync: wal.SyncAlways}); err != nil {
		return d, fmt.Errorf("open leader service: %w", err)
	}
	d.hub = replica.NewHub(d.leaderSvc, d.replReg)
	d.leaderSrv, err = server.New("127.0.0.1:0", d.leaderSvc, nil,
		server.WithObservability(d.leaderReg),
		server.WithReplication(d.hub),
		server.WithNodeStatus(func() server.NodeStatus {
			return server.NodeStatus{Role: "leader", CaughtUp: true}
		}))
	if err != nil {
		return d, fmt.Errorf("start leader server: %w", err)
	}

	if d.followerSvc, _, err = core.OpenService(core.ServiceOptions{Dir: filepath.Join(dir, nodeFollower)}); err != nil {
		return d, fmt.Errorf("open follower service: %w", err)
	}
	if d.follower, err = replica.StartFollower(d.followerSvc, d.leaderSrv.Addr(), d.replReg, nil); err != nil {
		return d, fmt.Errorf("start follower: %w", err)
	}
	d.fwd = replica.NewForwarder(d.leaderSrv.Addr())
	fol := d.follower
	d.followerSrv, err = server.New("127.0.0.1:0", d.followerSvc, nil,
		server.WithObservability(d.followerReg),
		server.WithForwarder(d.fwd),
		server.WithNodeStatus(func() server.NodeStatus {
			st := fol.Status()
			return server.NodeStatus{Role: "follower", CaughtUp: st.CaughtUp, LagNanos: st.LagNanos}
		}))
	if err != nil {
		return d, fmt.Errorf("start follower server: %w", err)
	}

	d.rt, err = router.Start(router.Config{
		Nodes: []router.Node{
			{Name: nodeLeader, Addr: d.leaderSrv.Addr()},
			{Name: nodeFollower, Addr: d.followerSrv.Addr()},
		},
		Leader:   nodeLeader,
		Registry: d.routerReg,
	})
	if err != nil {
		return d, fmt.Errorf("start router: %w", err)
	}
	return d, nil
}

// waitCaughtUp blocks until the follower's cursor equals the hub's head on
// the catalog and on every given repository, and reports how long that took.
func (d *deployment) waitCaughtUp(repoIDs []string, timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	streams := append([]string{replica.CatalogStream}, repoIDs...)
	for {
		behind := ""
		for _, id := range streams {
			if d.follower.Cursor(id) != d.hub.Head(id) {
				behind = id
				break
			}
		}
		if behind == "" && d.follower.Status().CaughtUp {
			return time.Since(start), nil
		}
		if time.Since(start) > timeout {
			return time.Since(start), fmt.Errorf("follower not caught up on %q after %v: cursor %+v, head %+v",
				behind, timeout, d.follower.Cursor(behind), d.hub.Head(behind))
		}
		time.Sleep(time.Millisecond)
	}
}

// Close stops the deployment outside-in: router, follower tier, leader tier.
// Every started piece waits for its goroutines, so nothing outlives it.
func (d *deployment) Close() error {
	var errs []error
	if d.rt != nil {
		errs = append(errs, d.rt.Close())
	}
	if d.followerSrv != nil {
		errs = append(errs, d.followerSrv.Close())
	}
	if d.follower != nil {
		d.follower.Close()
	}
	if d.fwd != nil {
		errs = append(errs, d.fwd.Close())
	}
	if d.leaderSrv != nil {
		errs = append(errs, d.leaderSrv.Close())
	}
	if d.followerSvc != nil {
		errs = append(errs, d.followerSvc.Close())
	}
	if d.leaderSvc != nil {
		errs = append(errs, d.leaderSvc.Close())
	}
	return errors.Join(errs...)
}
