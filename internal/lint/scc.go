package lint

// tarjanSCC computes the strongly connected components of a directed
// graph over nodes 0..n-1, returned in reverse topological order. The
// lockorder rule finds the cycles of the lock-acquisition graph with it.
func tarjanSCC(n int, succs func(int) []int) [][]int {
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack []int
		next  int
		out   [][]int
	)
	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succs(v) {
			if index[w] == unvisited {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			out = append(out, comp)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == unvisited {
			strongconnect(v)
		}
	}
	return out
}
