package router

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/dpe"
	"mie/internal/leakcheck"
	"mie/internal/obs"
	"mie/internal/replica"
	"mie/internal/server"
	"mie/internal/vec"
	"mie/internal/wire"
)

// recordingBackend is a fake node: it completes the handshake, records every
// request envelope exactly as it arrived, and answers each with a canned
// response whose body bytes the test knows.
type recordingBackend struct {
	ln net.Listener

	mu   sync.Mutex
	seen []*wire.Envelope
}

// cannedBody is what the backend answers; its bytes are not a valid body of
// any kind, which a relay that never decodes bodies cannot notice.
func cannedBody(req *wire.Envelope) []byte {
	return []byte("opaque response to " + req.Kind + " \x00\xff\xfe")
}

func startRecordingBackend(t *testing.T) *recordingBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := &recordingBackend{ln: ln}
	var wg sync.WaitGroup
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			b.mu.Lock()
			conns = append(conns, conn)
			b.mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				b.serve(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		b.mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		b.mu.Unlock()
		wg.Wait()
	})
	return b
}

func (b *recordingBackend) serve(conn net.Conn) {
	for {
		env, _, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		var reply *wire.Envelope
		if env.Kind == wire.KindHello {
			reply, _ = wire.AnswerHello(env, wire.HelloResp{Role: "leader", CaughtUp: true})
		} else {
			b.mu.Lock()
			b.seen = append(b.seen, env)
			b.mu.Unlock()
			reply = &wire.Envelope{Kind: wire.KindAck, ID: env.ID, Data: cannedBody(env)}
		}
		if _, err := wire.WriteEnvelope(conn, reply); err != nil {
			return
		}
	}
}

// last returns the most recent request the backend recorded.
func (b *recordingBackend) last(t *testing.T) *wire.Envelope {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.seen) == 0 {
		t.Fatal("the backend saw no request")
	}
	return b.seen[len(b.seen)-1]
}

// relayRequests are the four data-path kinds with realistic bodies.
func relayRequests(t *testing.T) map[string]*wire.Envelope {
	t.Helper()
	code := vec.NewBitVec(2048)
	code.Set(7, true)
	update := core.Update{ObjectID: "o", Owner: "u", Ciphertext: bytes.Repeat([]byte{0xc7}, 2000),
		TextTokens: map[dpe.Token]uint64{{1}: 2, {3}: 4}, ImageEncodings: []vec.BitVec{code, code}}
	query := core.Query{TextTokens: update.TextTokens, ImageEncodings: update.ImageEncodings, K: 10}
	out := map[string]*wire.Envelope{}
	for kind, payload := range map[string]any{
		wire.KindSearch: wire.SearchReq{RepoID: "relay-repo", Query: query},
		wire.KindGet:    wire.GetReq{RepoID: "relay-repo", ObjectID: "o"},
		wire.KindUpdate: wire.UpdateReq{RepoID: "relay-repo", Update: update},
		wire.KindRemove: wire.RemoveReq{RepoID: "relay-repo", ObjectID: "o"},
	} {
		env, err := wire.NewEnvelope(kind, "origin-token", 0, 30*time.Second, payload)
		if err != nil {
			t.Fatal(err)
		}
		env.TraceID, env.SpanID, env.TraceSampled = 0xabcdef, 0x123456, true
		out[kind] = env
	}
	return out
}

// TestRelayByPeek puts a relay — the router, and a follower forwarding to
// its leader — between a raw client and the recording backend. For every
// relayed kind the backend must receive the client's body bytes unchanged
// and the client the backend's; the hop re-stamps the request id and the
// time budget and nothing else: kind, bearer token and trace context ride
// through.
func TestRelayByPeek(t *testing.T) {
	leakcheck.Check(t)
	backend := startRecordingBackend(t)

	rt, err := Start(Config{
		Nodes:          []Node{{Name: "leader", Addr: backend.ln.Addr().String()}},
		HealthInterval: 50 * time.Millisecond,
		Registry:       obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rt.Close() }()

	svc, _, err := core.OpenService(core.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	fwd := replica.NewForwarder(backend.ln.Addr().String())
	defer func() { _ = fwd.Close() }()
	follower, err := server.New("127.0.0.1:0", svc, nil, server.WithForwarder(fwd), server.WithObservability(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = follower.Close() }()

	hops := []struct {
		name  string
		addr  string
		kinds []string // a follower serves reads itself and relays only writes
	}{
		{"router", rt.Addr(), []string{wire.KindSearch, wire.KindGet, wire.KindUpdate, wire.KindRemove}},
		{"follower", follower.Addr(), []string{wire.KindUpdate, wire.KindRemove}},
	}
	for _, hop := range hops {
		t.Run(hop.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", hop.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = conn.Close() }()
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := client.Handshake(conn); err != nil {
				t.Fatal(err)
			}
			requests := relayRequests(t)
			for i, kind := range hop.kinds {
				sent := *requests[kind]
				sent.ID = uint64(1000 + i)
				if _, err := wire.WriteEnvelope(conn, &sent); err != nil {
					t.Fatal(err)
				}
				resp, _, err := wire.ReadFrame(conn)
				if err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				got := backend.last(t)

				if !bytes.Equal(got.Data, sent.Data) {
					t.Errorf("%s: the backend received %d body bytes that differ from the %d sent", kind, len(got.Data), len(sent.Data))
				}
				if !bytes.Equal(resp.Data, cannedBody(got)) {
					t.Errorf("%s: the client received body %q, the backend wrote %q", kind, resp.Data, cannedBody(got))
				}
				if resp.ID != sent.ID || resp.Kind != wire.KindAck {
					t.Errorf("%s: response %s id %d, want ack echoing %d", kind, resp.Kind, resp.ID, sent.ID)
				}
				if got.Kind != kind || got.Auth != sent.Auth ||
					got.TraceID != sent.TraceID || got.SpanID != sent.SpanID || got.TraceSampled != sent.TraceSampled {
					t.Errorf("%s: header changed on the hop: sent %+v, backend got %+v", kind, headerOf(&sent), headerOf(got))
				}
				if got.ID == sent.ID {
					t.Errorf("%s: the hop reused the client's request id %d", kind, sent.ID)
				}
				if got.TimeoutNanos <= 0 || got.TimeoutNanos >= sent.TimeoutNanos {
					t.Errorf("%s: time budget %v was not re-stamped from %v", kind, time.Duration(got.TimeoutNanos), time.Duration(sent.TimeoutNanos))
				}
			}
		})
	}
}

// headerOf is an envelope without its body, for error messages.
func headerOf(e *wire.Envelope) wire.Envelope {
	h := *e
	h.Data = nil
	return h
}

// perHop are the envelope fields a relay re-stamps; every other field must
// arrive as sent. A field added to wire.Envelope lands in "every other
// field" by default, so a relay (or a frame layout) that drops it fails
// TestForwardLosesNoHeaderField until it is carried.
var perHop = map[string]bool{"ID": true, "TimeoutNanos": true}

// TestForwardLosesNoHeaderField sets every exported field of an envelope to
// a non-zero value by reflection, forwards it, and compares what the backend
// received field by field.
func TestForwardLosesNoHeaderField(t *testing.T) {
	backend := startRecordingBackend(t)
	conn, err := client.Dial(backend.ln.Addr().String(), nil, client.WithObservability(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()

	sent := &wire.Envelope{}
	fields := reflect.ValueOf(sent).Elem()
	for i := 0; i < fields.NumField(); i++ {
		f, name := fields.Field(i), fields.Type().Field(i).Name
		if !fields.Type().Field(i).IsExported() {
			continue
		}
		switch f.Kind() {
		case reflect.String:
			f.SetString("value-of-" + name)
		case reflect.Uint64:
			f.SetUint(0x0101010101010101 * uint64(i+1))
		case reflect.Int64:
			f.SetInt(int64(time.Hour) + int64(i))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Slice:
			f.SetBytes([]byte("body bytes set through field " + name))
		default:
			t.Fatalf("wire.Envelope.%s has kind %s: teach this test to set it", name, f.Kind())
		}
	}
	sent.Kind = wire.KindUpdate // the one field whose values are an enumeration

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := conn.Forward(ctx, sent); err != nil {
		t.Fatal(err)
	}
	got := reflect.ValueOf(backend.last(t)).Elem()
	for i := 0; i < fields.NumField(); i++ {
		field := fields.Type().Field(i)
		if !field.IsExported() {
			continue
		}
		want, have := fields.Field(i).Interface(), got.Field(i).Interface()
		switch same := reflect.DeepEqual(want, have); {
		case perHop[field.Name] && same:
			t.Errorf("Envelope.%s = %v was not re-stamped for the hop", field.Name, have)
		case !perHop[field.Name] && !same:
			t.Errorf("Envelope.%s was lost on the hop: sent %v, received %v", field.Name, fmt.Sprint(want), fmt.Sprint(have))
		}
	}
}
