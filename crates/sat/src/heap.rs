//! A max-heap over variables ordered by VSIDS activity.

/// One heap slot: a variable and its activity, stored side by side so a
/// sift compares keys without chasing into the activity array.
#[derive(Copy, Clone, Debug)]
struct Entry {
    act: f64,
    var: u32,
}

/// Binary max-heap with a position index. Each entry carries its
/// variable's activity; the solver refreshes the stored key whenever it
/// changes an activity ([`VarHeap::update`], [`VarHeap::refresh`]), so
/// every comparison reads the same value the activity array holds.
#[derive(Clone, Debug, Default)]
pub(crate) struct VarHeap {
    heap: Vec<Entry>,
    /// position of var in `heap`, or `ABSENT`
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl VarHeap {
    pub(crate) fn new() -> VarHeap {
        VarHeap::default()
    }

    pub(crate) fn grow(&mut self, nvars: usize) {
        if self.pos.len() < nvars {
            self.pos.resize(nvars, ABSENT);
        }
    }

    pub(crate) fn contains(&self, v: u32) -> bool {
        self.pos[v as usize] != ABSENT
    }

    pub(crate) fn insert(&mut self, v: u32, act: f64) {
        if self.contains(v) {
            return;
        }
        let hole = self.heap.len();
        self.heap.push(Entry { act, var: v });
        self.sift_up(hole, Entry { act, var: v });
    }

    pub(crate) fn pop_max(&mut self) -> Option<u32> {
        let top = self.heap.first()?.var;
        let last = self.heap.pop().unwrap();
        self.pos[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.sift_down(0, last);
        }
        Some(top)
    }

    /// Sets `v`'s key to its increased activity `act` and restores heap
    /// order.
    pub(crate) fn update(&mut self, v: u32, act: f64) {
        let p = self.pos[v as usize];
        if p != ABSENT {
            self.sift_up(p as usize, Entry { act, var: v });
        }
    }

    /// Re-reads every stored key from `act`, after the solver rescaled
    /// all activities. A uniform rescale keeps the heap order.
    pub(crate) fn refresh(&mut self, act: &[f64]) {
        for e in &mut self.heap {
            e.act = act[e.var as usize];
        }
    }

    /// Moves the hole at `i` towards the root until `x` fits, then
    /// places `x` there.
    fn sift_up(&mut self, mut i: usize, x: Entry) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if x.act <= self.heap[parent].act {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, x);
    }

    /// Moves the hole at `i` towards the leaves, promoting the larger
    /// child while it beats `x` (the left one on a tie), then places `x`.
    fn sift_down(&mut self, mut i: usize, x: Entry) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            let r = l + 1;
            let mut best = i;
            let mut best_act = x.act;
            if l < n && self.heap[l].act > best_act {
                best = l;
                best_act = self.heap[l].act;
            }
            if r < n && self.heap[r].act > best_act {
                best = r;
            }
            if best == i {
                break;
            }
            self.place(i, self.heap[best]);
            i = best;
        }
        self.place(i, x);
    }

    fn place(&mut self, i: usize, e: Entry) {
        self.heap[i] = e;
        self.pos[e.var as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let act = [0.5, 3.0, 1.0, 2.0];
        let mut h = VarHeap::new();
        h.grow(4);
        for v in 0..4 {
            h.insert(v, act[v as usize]);
        }
        assert_eq!(h.pop_max(), Some(1));
        assert_eq!(h.pop_max(), Some(3));
        assert_eq!(h.pop_max(), Some(2));
        assert_eq!(h.pop_max(), Some(0));
        assert_eq!(h.pop_max(), None);
    }

    #[test]
    fn update_reorders() {
        let mut h = VarHeap::new();
        h.grow(3);
        for v in 0..3 {
            h.insert(v, f64::from(v + 1));
        }
        h.update(0, 10.0);
        assert_eq!(h.pop_max(), Some(0));
    }

    #[test]
    fn refresh_rereads_keys() {
        let mut act = vec![1.0, 2.0, 3.0];
        let mut h = VarHeap::new();
        h.grow(3);
        for v in 0..3 {
            h.insert(v, act[v as usize]);
        }
        for a in &mut act {
            *a *= 1e-100;
        }
        h.refresh(&act);
        act[0] = 1.0;
        h.update(0, act[0]);
        assert_eq!(h.pop_max(), Some(0));
        assert_eq!(h.pop_max(), Some(2));
        assert_eq!(h.pop_max(), Some(1));
    }

    #[test]
    fn insert_is_idempotent() {
        let mut h = VarHeap::new();
        h.grow(1);
        h.insert(0, 1.0);
        h.insert(0, 1.0);
        assert_eq!(h.pop_max(), Some(0));
        assert_eq!(h.pop_max(), None);
    }
}
