package streamhist_test

import (
	"fmt"
	"time"

	"streamhist"
)

// Time-based windows: points expire by age, not count.
func ExampleWithSpan() {
	tw, err := streamhist.NewFixedWindow(100, 4, 0.5,
		streamhist.WithDelta(0.5), streamhist.WithSpan(10*time.Second))
	if err != nil {
		panic(err)
	}
	base := time.Unix(1_000_000, 0)
	// Thirty points, one per second: only the last ten survive.
	for i := 0; i < 30; i++ {
		if err := tw.PushAt(base.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			panic(err)
		}
	}
	fmt.Println("in window:", tw.Len())
	fmt.Println("oldest value:", tw.Window()[0])
	// Output:
	// in window: 10
	// oldest value: 20
}

// Snapshot and restore a running summary (restart recovery).
func ExampleFixedWindow_MarshalBinary() {
	m, _ := streamhist.NewFixedWindow(8, 2, 0.5, streamhist.WithDelta(0.5))
	fw := m.FixedWindow()
	for i := 1; i <= 10; i++ {
		fw.Push(float64(i))
	}
	blob, err := fw.MarshalBinary()
	if err != nil {
		panic(err)
	}
	var restored streamhist.FixedWindow
	if err := restored.UnmarshalBinary(blob); err != nil {
		panic(err)
	}
	fmt.Println("seen:", restored.Seen(), "window:", restored.Window())
	// Output:
	// seen: 10 window: [3 4 5 6 7 8 9 10]
}
