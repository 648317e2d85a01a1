package main

type shape interface{ area() float64 }

type square struct{ side float64 }

// area is reached only through shape: the interface keeps it live.
func (s square) area() float64 { return s.side * s.side }

// live is referenced from main, a non-test file.
func live() float64 {
	var s shape = square{side: 2}
	return s.area()
}

// unused calls itself, which does not keep it live.
func unused(n int) int { // want `unused is referenced by nothing`
	if n == 0 {
		return 0
	}
	return unused(n - 1)
}

func onlyTested() int { return 2 } // want `onlyTested is referenced only by its own package's tests`

func main() { println(live()) }
