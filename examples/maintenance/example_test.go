package main

// Example runs the program: everything it prints comes from the simulated
// volume's cost model, not from a clock, so the output is exact.
func Example() {
	main()
	// Output: after bulk load:            1 segments,  0 index pages, util 100.0%, scan    1 seeks (  3505.9ms)
	//     seg  0: logical       0  pages    3..2050 (2048)
	// after 300 edits (T=1):    551 segments,  8 index pages, util  93.2%, scan  551 seeks ( 17110.6ms)
	//     seg  0: logical       0  pages    3..   3 (1)
	//     seg  1: logical     232  pages 7640..7640 (1)
	//     seg  2: logical    1088  pages    4..  33 (30)
	//     seg  3: logical   31808  pages 7620..7620 (1)
	//     seg  4: logical   32768  pages 7819..7819 (1)
	//     seg  5: logical   33728  pages   36..  38 (3)
	//     ... 545 more
	// after Compact:              1 segments,  0 index pages, util 100.0%, scan    1 seeks (  3505.9ms)
	//     seg  0: logical       0  pages 3924..5971 (2048)
	// after 300 edits (T=16):   110 segments,  2 index pages, util  98.0%, scan  109 seeks (  6196.6ms)
	//     seg  0: logical       0  pages 9009..9026 (18)
	//     seg  1: logical   17536  pages 2949..2964 (16)
	//     seg  2: logical   33824  pages  278.. 293 (16)
	//     seg  3: logical   50112  pages 8762..8779 (18)
	//     seg  4: logical   67822  pages 2532..2551 (20)
	//     seg  5: logical   88064  pages 10656..10671 (16)
	//     ... 104 more
	// store check + leak check: OK
}
