package experiments

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"time"

	"mie/internal/wire"
)

// chaosRelay is a TCP forwarder with fault and capacity injection — the
// userspace stand-in for `tc netem` plus a saturable NIC that the cluster
// harness uses to make distributed failure modes deterministic:
//
//   - Partition drops every live connection and refuses new ones until
//     healed — a clean network partition at a frame boundary.
//   - SetTarget repoints the relay at a new backend address (clients keep
//     the relay's stable address across a leader restart, exactly like a
//     VIP); live connections to the old target are dropped.
//   - SetFrameInterval paces client→server request frames through a relay-
//     wide token clock — at most one frame per interval across all
//     connections — modelling a node's finite request capacity so read
//     scale-out is measurable in-process.
//
// The unpaced, never-partitioned relay is byte-transparent.
type chaosRelay struct {
	ln net.Listener
	wg sync.WaitGroup

	mu          sync.Mutex
	target      string
	frameEvery  time.Duration
	partitioned bool
	conns       map[net.Conn]struct{}

	paceMu   sync.Mutex
	nextSlot time.Time
}

func newChaosRelay(target string) (*chaosRelay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &chaosRelay{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

func (r *chaosRelay) Addr() string { return r.ln.Addr().String() }

func (r *chaosRelay) Close() {
	_ = r.ln.Close()
	r.dropConns()
	r.wg.Wait()
}

// SetTarget repoints the relay (the stable "VIP" address) at a new backend
// and drops live connections so clients redial through to it.
func (r *chaosRelay) SetTarget(addr string) {
	r.mu.Lock()
	r.target = addr
	r.mu.Unlock()
	r.dropConns()
}

// Partition isolates the relay's backend: live connections are dropped and
// new ones refused until Partition(false) heals it.
func (r *chaosRelay) Partition(on bool) {
	r.mu.Lock()
	r.partitioned = on
	r.mu.Unlock()
	if on {
		r.dropConns()
	}
}

// SetFrameInterval paces client→server frames to at most one per d across
// all connections (0 disables pacing).
func (r *chaosRelay) SetFrameInterval(d time.Duration) {
	r.mu.Lock()
	r.frameEvery = d
	r.mu.Unlock()
}

func (r *chaosRelay) getFrameEvery() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frameEvery
}

func (r *chaosRelay) register(c net.Conn) {
	r.mu.Lock()
	r.conns[c] = struct{}{}
	r.mu.Unlock()
}

func (r *chaosRelay) unregister(c net.Conn) {
	r.mu.Lock()
	delete(r.conns, c)
	r.mu.Unlock()
}

func (r *chaosRelay) dropConns() {
	r.mu.Lock()
	conns := make([]net.Conn, 0, len(r.conns))
	for c := range r.conns {
		conns = append(conns, c)
	}
	r.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

func (r *chaosRelay) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		r.mu.Lock()
		refused := r.partitioned
		target := r.target
		r.mu.Unlock()
		if refused {
			_ = conn.Close()
			continue
		}
		upstream, err := net.Dial("tcp", target)
		if err != nil {
			_ = conn.Close()
			continue
		}
		r.register(conn)
		r.register(upstream)
		r.wg.Add(2)
		go r.pipe(upstream, conn, true)  // client -> server: frame-aware, paced
		go r.pipe(conn, upstream, false) // server -> client: raw bursts
	}
}

// pipe copies src to dst. A reader goroutine feeds bursts into a deep queue
// so reading never stalls behind paced delivery. On the client→server
// direction the reader parses whole wire frames so pacing and partitions
// land exactly on frame boundaries.
func (r *chaosRelay) pipe(dst, src net.Conn, frames bool) {
	defer r.wg.Done()
	// Deep enough that a paced relay never back-pressures its reader in any
	// cluster test or experiment (their in-flight frames number in the tens).
	ch := make(chan []byte, 4096)
	if frames {
		go r.readFrames(src, ch)
	} else {
		go r.readBursts(src, ch)
	}
	for data := range ch {
		if frames {
			if every := r.getFrameEvery(); every > 0 {
				r.paceMu.Lock()
				slot := time.Now()
				if r.nextSlot.After(slot) {
					slot = r.nextSlot
				}
				r.nextSlot = slot.Add(every)
				r.paceMu.Unlock()
				time.Sleep(time.Until(slot))
			}
		}
		if _, err := dst.Write(data); err != nil {
			break
		}
	}
	// Half-close so the peer sees EOF once the source side is done; full
	// close tears down the paired pipe's reader too, which is fine after
	// the workload completes.
	_ = dst.Close()
	_ = src.Close()
	r.unregister(dst)
	r.unregister(src)
	for range ch { // drain so the reader goroutine exits
	}
}

func (r *chaosRelay) readBursts(src net.Conn, ch chan<- []byte) {
	defer close(ch)
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			data := make([]byte, n)
			copy(data, buf[:n])
			ch <- data
		}
		if err != nil {
			return
		}
	}
}

// readFrames reads whole length-prefixed wire frames, one burst per frame.
// A stream that stops looking like wire frames ends the pipe (the relay
// only ever carries wire traffic).
func (r *chaosRelay) readFrames(src net.Conn, ch chan<- []byte) {
	defer close(ch)
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(hdr[:])
		if size > wire.MaxFrameSize {
			return
		}
		data := make([]byte, 4+size)
		copy(data, hdr[:])
		if _, err := io.ReadFull(src, data[4:]); err != nil {
			return
		}
		ch <- data
	}
}
