package daemon_test

import (
	"fmt"

	"voqsim/internal/daemon"
)

// A data frame carries one packet into an ingress port: source, a
// sender-chosen sequence number, the destination bitmap, payload.
func ExampleAppendData() {
	// Input 2 of an 8-port switch sends seq 7 to outputs {0, 5}.
	bitmap := []byte{0b0010_0001}
	frame := daemon.AppendData(nil, 2, 7, 8, bitmap, []byte("hi"))
	fmt.Printf("% x\n", frame)
	// Output:
	// 56 51 01 01 00 02 00 00 00 00 00 00 00 07 00 08 21 00 02 68 69
}

func ExampleParseData() {
	bitmap := []byte{0b0010_0001}
	frame := daemon.AppendData(nil, 2, 7, 8, bitmap, []byte("hi"))

	d, err := daemon.ParseData(frame)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("src=%d seq=%d fanout=%d payload=%q\n", d.Src, d.Seq, d.Fanout(), d.Payload)
	d.ForEachDest(func(out int) { fmt.Println("dest:", out) })
	// Output:
	// src=2 seq=7 fanout=2 payload="hi"
	// dest: 0
	// dest: 5
}

// Hostile datagrams error — they never panic and never half-decode.
func ExampleParseData_hostile() {
	_, err := daemon.ParseData([]byte{'V', 'Q', 1, 1, 0xFF})
	fmt.Println(err)
	// Output:
	// daemon: data frame: offset 4: need 2 bytes, 1 remain
}

func ExampleParseDelivery() {
	// A copy of packet (src=2, seq=7) reached output 5: admitted at
	// slot 100, delivered at slot 103 (delay 4 slots), completing the
	// packet's fanout.
	frame := daemon.AppendDelivery(nil, 2, 5, 7, 100, 103, true, []byte("hi"))

	d, err := daemon.ParseDelivery(frame)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("src=%d out=%d seq=%d delay=%d last=%v\n", d.Src, d.Out, d.Seq, d.Slot-d.Arrival+1, d.Last)
	// Output:
	// src=2 out=5 seq=7 delay=4 last=true
}
