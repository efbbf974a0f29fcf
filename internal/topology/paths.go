package topology

import (
	"container/heap"
	"sort"
)

// route is an intermediate node/link sequence produced by the path search.
type route struct {
	nodes []int
	links []int
	delay float64
}

// pqItem is a Dijkstra frontier entry.
type pqItem struct {
	node int
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// dijkstra finds the minimum-delay route from src to dst, honoring the
// banned node and link sets (used by Yen's spur computation). It returns
// ok=false when dst is unreachable.
func (n *Network) dijkstra(src, dst int, bannedNodes map[int]bool, bannedLinks map[int]bool) (route, bool) {
	dist := make(map[int]float64, len(n.Nodes))
	prevLink := make(map[int]int, len(n.Nodes))
	visited := make(map[int]bool, len(n.Nodes))

	dist[src] = 0
	q := &pq{{node: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if visited[it.node] {
			continue
		}
		visited[it.node] = true
		if it.node == dst {
			break
		}
		for _, lid := range n.adj[it.node] {
			if bannedLinks[lid] {
				continue
			}
			l := n.Links[lid]
			next := n.other(l, it.node)
			if bannedNodes[next] && next != dst {
				continue
			}
			// Traffic never transits a base station (BSs are leaves of the
			// transport graph), but it may pass a CU site: the paper's
			// core cloud is reached *through* the edge site's router.
			if next != dst && n.Nodes[next].Kind == BSNode {
				continue
			}
			nd := it.dist + LinkDelay(l)
			if cur, ok := dist[next]; !ok || nd < cur-1e-15 {
				dist[next] = nd
				prevLink[next] = lid
				heap.Push(q, pqItem{node: next, dist: nd})
			}
		}
	}
	if !visited[dst] {
		return route{}, false
	}

	// Walk back from dst.
	var links []int
	var nodes []int
	at := dst
	for at != src {
		lid := prevLink[at]
		links = append(links, lid)
		nodes = append(nodes, at)
		at = n.other(n.Links[lid], at)
	}
	nodes = append(nodes, src)
	reverseInts(links)
	reverseInts(nodes)
	return route{nodes: nodes, links: links, delay: dist[dst]}, true
}

func reverseInts(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// kShortest implements Yen's algorithm for up to k loop-free minimum-delay
// routes from src to dst. Fewer than k routes are returned when the graph
// does not admit more (N3's sparse fiber trees average only 1.6 paths).
func (n *Network) kShortest(src, dst, k int) []route {
	first, ok := n.dijkstra(src, dst, nil, nil)
	if !ok {
		return nil
	}
	result := []route{first}
	var candidates []route

	for len(result) < k {
		prev := result[len(result)-1]
		// Each node of the previous path (except its tail) is a spur.
		for i := 0; i < len(prev.nodes)-1; i++ {
			spur := prev.nodes[i]
			rootNodes := prev.nodes[:i+1]
			rootLinks := prev.links[:i]

			bannedLinks := map[int]bool{}
			for _, r := range result {
				if sharesRoot(r, rootNodes) && len(r.links) > i {
					bannedLinks[r.links[i]] = true
				}
			}
			bannedNodes := map[int]bool{}
			for _, v := range rootNodes[:len(rootNodes)-1] {
				bannedNodes[v] = true
			}

			spurRoute, ok := n.dijkstra(spur, dst, bannedNodes, bannedLinks)
			if !ok {
				continue
			}
			total := route{
				nodes: append(append([]int{}, rootNodes...), spurRoute.nodes[1:]...),
				links: append(append([]int{}, rootLinks...), spurRoute.links...),
			}
			for _, lid := range total.links {
				total.delay += LinkDelay(n.Links[lid])
			}
			if !containsRoute(candidates, total) && !containsRoute(result, total) {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool { return candidates[a].delay < candidates[b].delay })
		result = append(result, candidates[0])
		candidates = candidates[1:]
	}
	return result
}

// sharesRoot reports whether route r begins with the given node prefix.
func sharesRoot(r route, prefix []int) bool {
	if len(r.nodes) < len(prefix) {
		return false
	}
	for i, v := range prefix {
		if r.nodes[i] != v {
			return false
		}
	}
	return true
}

// containsRoute reports whether rs already holds an identical link sequence.
func containsRoute(rs []route, r route) bool {
	for _, o := range rs {
		if len(o.links) != len(r.links) {
			continue
		}
		same := true
		for i := range o.links {
			if o.links[i] != r.links[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}
