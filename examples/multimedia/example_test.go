package main

// Example runs the program: everything it prints comes from the simulated
// volume's cost model, not from a clock, so the output is exact.
func Example() {
	main()
	// Output: ingested 20 s clip: 16 MB in 13 segments, utilization 100.0%
	// playback (pristine):          480 frames,     9 seeks,   4320 pages,  15.76ms/frame (real-time OK)
	// after edits: 15 segments, utilization 100.0%
	// playback (after edits):       456 frames,    10 seeks,   3887 pages,  15.02ms/frame (real-time OK)
	// 5 random frame seeks: 5 seeks, 44 pages, 196.30ms total
	// store check: OK
}
