package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/wire"
)

// goldenRPC holds the protocol's recorded bytes: the hello, one request
// frame, and one response frame per status, written while both ends of the
// protocol still lived in the node package. Do not regenerate it from the
// current code: the point is that the move did not change a byte. The
// hello and the committed response were re-recorded on purpose when the
// shard partition went (version 2; the receipt lost its shard fields),
// and only once their other bytes — every other frame, and the receipt's
// entry — were checked unchanged.
const goldenRPC = "testdata/rpc_golden.txt"

// goldenStatuses names the recorded responses in the order the tests
// exchange them.
var goldenStatuses = []string{"committed", "notprimary", "busy", "toolarge", "duplicate", "timeout", "shutdown"}

func readGoldenRPC(tb testing.TB) map[string][]byte {
	tb.Helper()
	data, err := os.ReadFile(goldenRPC)
	if err != nil {
		tb.Fatal(err)
	}
	out := map[string][]byte{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, h, _ := strings.Cut(line, " ")
		if out[name], err = hex.DecodeString(h); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

func goldenRequest() *ledger.Request {
	return &ledger.Request{Author: hashsig.Sum([]byte("golden-rpc-client")), ReqNo: 9, Body: []byte("golden body")}
}

func goldenResults(t *testing.T) map[string]Result {
	t.Helper()
	led, err := ledger.New(ledger.Config{Key: hashsig.GenerateKeyFromSeed("golden-rpc"), App: ledger.KVApp{}})
	if err != nil {
		t.Fatal(err)
	}
	rq := goldenRequest()
	rq.Body = ledger.EncodeOps([]ledger.Op{{Key: "k", Val: []byte("v")}})
	_, rcs, err := led.ExecuteBatch([]ledger.Request{*rq})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Result{
		"committed":  {Status: StatusCommitted, Receipt: &rcs[0]},
		"notprimary": {Status: StatusNotPrimary, Leader: 3},
		"busy":       {Status: StatusBusy},
		"toolarge":   {Status: StatusTooLarge},
		"duplicate":  {Status: StatusDuplicate},
		"timeout":    {Status: StatusTimeout},
		"shutdown":   {Status: StatusShutdown},
	}
}

func sameResult(a, b Result) bool {
	if a.Status != b.Status || a.Leader != b.Leader || (a.Receipt == nil) != (b.Receipt == nil) {
		return false
	}
	return a.Receipt == nil || bytes.Equal(ledger.EncodeReceipt(nil, a.Receipt), ledger.EncodeReceipt(nil, b.Receipt))
}

func frame(body []byte) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := wire.WriteFrame(bw, body); err != nil {
		panic(err)
	}
	bw.Flush()
	return buf.Bytes()
}

// TestGoldenClient: the client writes the recorded hello and request
// frame, and reads every recorded response back as the result it encodes.
func TestGoldenClient(t *testing.T) {
	golden, results := readGoldenRPC(t), goldenResults(t)
	for name, res := range results {
		if got := frame(encodeResult(nil, res)); !bytes.Equal(got, golden[name]) {
			t.Fatalf("%s response encodes as\n %x\nrecorded\n %x", name, got, golden[name])
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sent := make(chan []byte, 1)
	go func() {
		var got []byte
		defer func() { sent <- got }()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		want := len(golden["hello"]) + len(golden["request"])
		for _, name := range goldenStatuses {
			b := make([]byte, want)
			if _, err := io.ReadFull(c, b); err != nil {
				return
			}
			got, want = append(got, b...), len(golden["request"])
			c.Write(golden[name])
		}
	}()
	cl, err := Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, name := range goldenStatuses {
		res, err := cl.Submit(goldenRequest(), 5*time.Second)
		if err != nil || !sameResult(res, results[name]) {
			t.Fatalf("%s read back as %+v, %v", name, res, err)
		}
	}
	want := append(append([]byte(nil), golden["hello"]...), bytes.Repeat(golden["request"], len(goldenStatuses))...)
	if got := <-sent; !bytes.Equal(got, want) {
		t.Fatalf("client wrote\n %x\nrecorded\n %x", got, want)
	}
}

// TestGoldenServer: the server accepts the recorded hello and request
// frames, hands the recorded request to submit, and answers each verdict
// with the recorded response frame.
func TestGoldenServer(t *testing.T) {
	golden, results := readGoldenRPC(t), goldenResults(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	verdicts := make(chan Result, len(goldenStatuses))
	for _, name := range goldenStatuses {
		verdicts <- results[name]
	}
	srv := Serve(ln, func(rq ledger.Request) Result {
		if !bytes.Equal(ledger.EncodeRequest(nil, &rq), ledger.EncodeRequest(nil, goldenRequest())) {
			return Result{Status: StatusShutdown, Leader: 99}
		}
		return <-verdicts
	})
	defer srv.Close()
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	c.Write(golden["hello"])
	for _, name := range goldenStatuses {
		c.Write(golden["request"])
		got := make([]byte, len(golden[name]))
		if _, err := io.ReadFull(c, got); err != nil || !bytes.Equal(got, golden[name]) {
			t.Fatalf("%s answered\n %x (%v)\nrecorded\n %x", name, got, err, golden[name])
		}
	}
}

// TestServerRefusesOverCapBeforeReading: a request frame announcing more
// than the cap is answered StatusTooLarge without its body being sent, and
// the connection is closed.
func TestServerRefusesOverCapBeforeReading(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, func(ledger.Request) Result {
		t.Error("an over-cap request reached submit")
		return Result{Status: StatusBusy}
	})
	defer srv.Close()
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	var hello [12]byte
	binary.BigEndian.PutUint32(hello[0:4], Magic)
	binary.BigEndian.PutUint32(hello[4:8], Version)
	binary.BigEndian.PutUint32(hello[8:12], maxRequestFrame+1)
	c.Write(hello[:])
	got, err := io.ReadAll(c)
	if err != nil || !bytes.Equal(got, frame([]byte{byte(StatusTooLarge)})) {
		t.Fatalf("over-cap request answered %x, %v", got, err)
	}
}

// TestLargestRequestRoundTrip: a request with a MaxRequestLen body — the
// largest the server reads — commits, and the client reads back a receipt
// that carries the whole body and verifies, although its response frame is
// larger than any request frame.
func TestLargestRequestRoundTrip(t *testing.T) {
	key := hashsig.GenerateKeyFromSeed("rpc-largest")
	led, err := ledger.New(ledger.Config{Key: key, App: ledger.KVApp{}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, func(rq ledger.Request) Result {
		_, rcs, err := led.ExecuteBatch([]ledger.Request{rq})
		if err != nil {
			return Result{Status: StatusTooLarge}
		}
		return Result{Status: StatusCommitted, Receipt: &rcs[0]}
	})
	defer srv.Close()
	cl, err := Dial(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rq := &ledger.Request{Author: hashsig.Sum([]byte("rpc-largest/client")), ReqNo: 1, Body: bytes.Repeat([]byte{0xA5}, ledger.MaxRequestLen)}
	res, err := cl.Submit(rq, time.Minute)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Status != StatusCommitted || res.Receipt == nil {
		t.Fatalf("answered %v, receipt %v", res.Status, res.Receipt != nil)
	}
	if !bytes.Equal(res.Receipt.Entry.Payload, rq.Body) || !res.Receipt.Verify(key.Public()) {
		t.Fatal("the receipt does not prove the request")
	}
}

// TestDecodeResultIsStrict: a response is exactly what encodeResult writes.
func TestDecodeResultIsStrict(t *testing.T) {
	committed := encodeResult(nil, goldenResults(t)["committed"])
	for name, b := range map[string][]byte{
		"empty":                    nil,
		"status 0":                 {0},
		"unknown status":           {byte(StatusShutdown) + 1},
		"not-primary without hint": {byte(StatusNotPrimary)},
		"truncated hint":           {byte(StatusNotPrimary), 0, 0, 1},
		"bytes after the hint":     {byte(StatusNotPrimary), 0, 0, 0, 1, 0},
		"payload after busy":       {byte(StatusBusy), 0},
		"truncated receipt":        committed[:len(committed)-1],
		"bytes after the receipt":  append(append([]byte(nil), committed...), 0),
	} {
		if res, err := decodeResult(b); err == nil {
			t.Fatalf("%s decoded as %+v", name, res)
		}
	}
	if res, err := decodeResult([]byte{byte(StatusCommitted)}); err != nil || res.Status != StatusCommitted || res.Receipt != nil {
		t.Fatalf("committed without a receipt: %+v, %v", res, err)
	}
}

// FuzzDecodeResult: no input panics the client's response decoder, and any
// input it accepts re-encodes to itself.
func FuzzDecodeResult(f *testing.F) {
	golden := readGoldenRPC(f)
	for _, name := range goldenStatuses {
		f.Add(golden[name][4:])
	}
	f.Add([]byte{byte(StatusNotPrimary), 0, 0, 1})
	f.Add([]byte{byte(StatusShutdown) + 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeResult(data)
		if err != nil {
			return
		}
		if re := encodeResult(nil, res); !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, re)
		}
	})
}
