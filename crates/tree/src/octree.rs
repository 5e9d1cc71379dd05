//! A Barnes-Hut octree over point masses, laid out in one contiguous array.
//!
//! This is the algorithm the paper's §3 argues *against* for the
//! planetesimal problem: it reduces the per-step cost from O(N²) to
//! O(N log N), but must be rebuilt (or carefully migrated) whenever
//! particles move, which destroys its advantage under individual timesteps
//! where only a handful of particles move per block step. We implement it
//! faithfully — monopole moments with mass-weighted velocity so it can
//! return jerk as well — to quantify that argument (experiment E5).
//!
//! # Layout
//!
//! The build is top-down and in place: one array of body indices is
//! partitioned octant by octant (a *stable* counting partition, so every
//! leaf keeps its bodies in ascending index), each cell is a `(first, len)`
//! run of that array, and the moments are one reverse sweep over the node
//! arena (children always sit behind their parent). A point-region
//! octree's cells do not depend on the order bodies arrive in — a cell is
//! internal iff it holds more than `LEAF_CAPACITY` bodies — so this is the
//! same tree, cell for cell and bit for bit in its moments, as inserting
//! the bodies one by one in index order (the `#[cfg(test)]` oracle below).
//! [`Octree::rebuild`] reuses the arena and the partition scratch.
//!
//! The tree keeps one copy of the bodies, **in tree order**: position `s`
//! of the arrays — the body's *slot* — holds body `order[s]`, so every
//! cell's bodies are one contiguous run of slots and a walk reads a leaf
//! front to back. After the partition the scratch it used becomes the
//! inverse map, each body's slot ([`Octree::group_of`] and
//! [`Octree::body`] read it); groups are stored per slot.
//!
//! The walks emit into [`InteractionLists`]' retained buffers by index,
//! without a branch per body: a leaf body is written to both the next near
//! entry (`body`, `slot`) and the next far source, and only the cursor its
//! distance test picks advances. The buffers grow in a cold helper before
//! a leaf or cell could overrun them, never inside the walk; the near
//! entries are sorted by body afterwards, so the direct sums still run in
//! ascending body index.
//!
//! # Groups (Barnes' modified algorithm)
//!
//! The maximal cells holding at most [`group_cap`] bodies ([`GROUP_MAX`] in
//! any system large enough for a tree to pay) are the tree's *groups*:
//! neighbouring bodies that share one interaction list
//! ([`Octree::group_lists`]), which is what turns the list into a
//! GRAPE-shaped j-sweep (one j stream broadcast to a bank of i-pipelines;
//! Fukushige & Kawai 2016, Kawai, Fukushige & Makino 1999). Groups are a
//! function of the tree alone. The per-point walk
//! ([`Octree::interaction_lists`]) is the same routine on a one-point box.

use grape6_core::vec3::Vec3;

/// Maximum bodies per leaf before subdivision.
const LEAF_CAPACITY: usize = 8;

/// Depth below which a cell is a leaf whatever it holds (coincident bodies
/// must not recurse forever).
const MAX_DEPTH: usize = 64;

/// Most bodies a group (a cell whose members share one interaction list) may
/// hold, short of coincident bodies piled deeper than the tree subdivides.
/// A measured compile-time constant like `core::lanes::LANE_WIDTH` — the
/// group structure is a function of the tree, never an option. Sweep of
/// `HybridTreeEngine::compute` on a 21,846-body block of the `hybrid_32k`
/// disk (θ = 0.5, r_near = 1.0, one thread, median of six interleaved
/// rounds; one walk per i-particle took 0.40 s): 8 → 0.196 s, 16 → 0.126 s,
/// 32 → 0.093 s, 64 → 0.085 s, 128 → 0.087 s, 256 → 0.094 s. Larger groups
/// walk less and sum more (710 → 1,523 list entries per i across that
/// range); the total is flat within 10 % from 32 to 256. 32 is the small
/// end of that plateau: the fewest interactions for the same time.
pub const GROUP_MAX: usize = 32;

/// Most bodies a group of an `n`-body tree may hold: [`GROUP_MAX`], but no
/// more than 1/64 of the system. A shared list is opened as far as the most
/// demanding point of the group's box needs, and in a small system a
/// 32-body box is a large part of everything: on the 802-body test disk
/// (θ = 0.5) groups of ≤ 32 read 0.534 N² list entries where one walk per
/// particle read 0.45 N², ≤ 16 reads 0.468, ≤ 12 (this rule) 0.453 and
/// ≤ 8 (the leaves) 0.432 — and the tree must stay cheaper than the direct
/// sum it approximates (`tests/tree_accuracy.rs` holds it under N²/2 there).
/// From 2,048 bodies on this is `GROUP_MAX`; below 512 the groups are the
/// leaves.
pub fn group_cap(n: usize) -> usize {
    (n / 64).min(GROUP_MAX)
}

/// A node of the octree (internal arena representation).
#[derive(Debug, Clone)]
struct Node {
    /// Geometric center of the cell.
    center: Vec3,
    /// Half-width of the cell.
    half: f64,
    /// Total mass below this node.
    mass: f64,
    /// Center of mass.
    com: Vec3,
    /// Mass-weighted mean velocity (for jerk).
    vcom: Vec3,
    /// Arena index of the first child; the children of a cell sit together
    /// in octant order (empty octants have none).
    first_child: u32,
    /// Start of this cell's run in [`Octree::order`].
    first: u32,
    /// Bodies in this subtree (the length of the run).
    len: u32,
    /// Children (non-empty octants); zero for a leaf.
    child_count: u8,
}

impl Node {
    fn new(center: Vec3, half: f64, first: u32, len: u32) -> Self {
        Self {
            center,
            half,
            mass: 0.0,
            com: Vec3::zero(),
            vcom: Vec3::zero(),
            first_child: 0,
            first,
            len,
            child_count: 0,
        }
    }

    fn is_leaf(&self) -> bool {
        self.child_count == 0
    }

    /// Arena indices of the children, in octant order.
    fn children(&self) -> std::ops::Range<usize> {
        self.first_child as usize..self.first_child as usize + self.child_count as usize
    }

    fn run(&self) -> std::ops::Range<usize> {
        self.first as usize..(self.first + self.len) as usize
    }

    fn child_center(&self, oct: usize) -> Vec3 {
        let q = self.half / 2.0;
        Vec3::new(
            self.center.x + if oct & 1 != 0 { q } else { -q },
            self.center.y + if oct & 2 != 0 { q } else { -q },
            self.center.z + if oct & 4 != 0 { q } else { -q },
        )
    }
}

fn octant_of(center: Vec3, p: Vec3) -> usize {
    ((p.x >= center.x) as usize)
        | (((p.y >= center.y) as usize) << 1)
        | (((p.z >= center.z) as usize) << 2)
}

/// Squared distance from `p` to the axis-aligned box `[lo, hi]` (zero
/// inside). On the one-point box `lo = hi = q` every axis term is
/// `|p − q|`, so this is `(p − q).norm2()` bit for bit.
#[inline(always)]
fn box_dist2(p: Vec3, lo: Vec3, hi: Vec3) -> f64 {
    let dx = (lo.x - p.x).max(p.x - hi.x).max(0.0);
    let dy = (lo.y - p.y).max(p.y - hi.y).max(0.0);
    let dz = (lo.z - p.z).max(p.z - hi.z).max(0.0);
    dx * dx + dy * dy + dz * dz
}

/// A built Barnes-Hut octree with monopole + velocity moments.
#[derive(Debug, Clone)]
pub struct Octree {
    nodes: Vec<Node>,
    /// Body index of each slot: every cell's bodies are one contiguous run
    /// of slots, every leaf's run ascending.
    order: Vec<u32>,
    /// Positions, velocities and masses by slot (`order` order).
    pos: Vec<Vec3>,
    vel: Vec<Vec3>,
    mass: Vec<f64>,
    /// Node index of each group, in depth-first octant order.
    groups: Vec<u32>,
    /// Group of each slot.
    group_of: Vec<u32>,
    /// Partition scratch during a build; afterwards the slot of each body
    /// (the inverse of `order`). Capacity reused across rebuilds.
    slot_of: Vec<u32>,
    octants: Vec<u8>,
}

/// Result of one tree traversal.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TreeForce {
    /// Acceleration.
    pub acc: Vec3,
    /// Jerk (from the velocity moments; exact for leaves, monopole-level for
    /// opened cells).
    pub jerk: Vec3,
    /// Potential.
    pub pot: f64,
    /// Particle-cell and particle-particle evaluations performed.
    pub evaluations: u64,
}

impl Octree {
    /// The arena before its first [`Self::rebuild`]: no tree yet, nothing
    /// to walk.
    pub(crate) fn unbuilt() -> Self {
        Self {
            nodes: Vec::new(),
            order: Vec::new(),
            pos: Vec::new(),
            vel: Vec::new(),
            mass: Vec::new(),
            groups: Vec::new(),
            group_of: Vec::new(),
            slot_of: Vec::new(),
            octants: Vec::new(),
        }
    }

    /// Build a tree over the given bodies.
    pub fn build(pos: &[Vec3], vel: &[Vec3], mass: &[f64]) -> Self {
        let mut tree = Self::unbuilt();
        tree.rebuild(pos, vel, mass);
        tree
    }

    /// Build over a new set of bodies in place, keeping the node arena, the
    /// body arrays and the partition scratch (a steady-state rebuild
    /// allocates only when the tree grows). The partition reads the input
    /// slices; the tree then keeps the bodies in tree order.
    pub fn rebuild(&mut self, pos: &[Vec3], vel: &[Vec3], mass: &[f64]) {
        assert_eq!(pos.len(), vel.len());
        assert_eq!(pos.len(), mass.len());
        assert!(!pos.is_empty(), "cannot build a tree over zero bodies");
        let n = pos.len();
        assert!(n < u32::MAX as usize, "body indices are u32");
        // Bounding cube.
        let mut lo = pos[0];
        let mut hi = pos[0];
        for &p in pos {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        let center = (lo + hi) * 0.5;
        let half = ((hi - lo).max_component() * 0.5).max(1e-12) * 1.0000001;
        // The tree-order arrays are allocated first, as the body-indexed
        // copies were, so a fresh build faults in as few pages: allocated
        // after the partition scratch and the node arena, a build-then-drop
        // loop on the 32k paper disk faulted 723 pages per build against 54
        // and took 1.5–1.8 times as long.
        for v in [&mut self.pos, &mut self.vel] {
            v.clear();
            v.reserve(n);
        }
        self.mass.clear();
        self.mass.reserve(n);
        self.order.clear();
        self.order.extend(0..n as u32);
        self.slot_of.resize(n, 0);
        self.octants.resize(n, 0);
        self.group_of.resize(n, 0);
        self.groups.clear();
        self.nodes.clear();
        self.nodes.push(Node::new(center, half, 0, n as u32));
        self.split(0, 0, false, pos);
        self.store_in_tree_order(pos, vel, mass);
        self.compute_moments();
    }

    /// Append the bodies to the (empty) body arrays in slot order and turn
    /// the partition scratch into each body's slot.
    fn store_in_tree_order(&mut self, pos: &[Vec3], vel: &[Vec3], mass: &[f64]) {
        let slot_of = &mut self.slot_of;
        slot_of.resize(self.order.len(), 0);
        self.pos.extend(self.order.iter().enumerate().map(|(slot, &b)| {
            slot_of[b as usize] = slot as u32;
            pos[b as usize]
        }));
        self.vel.extend(self.order.iter().map(|&b| vel[b as usize]));
        self.mass.extend(self.order.iter().map(|&b| mass[b as usize]));
    }

    /// Subdivide `node` (at `depth`) until every cell holds at most
    /// `LEAF_CAPACITY` bodies, registering the first cell on each path with
    /// at most [`group_cap`] bodies as a group (`grouped`: an ancestor
    /// already is one). `pos` are the input bodies, by index.
    fn split(&mut self, node: usize, depth: usize, mut grouped: bool, pos: &[Vec3]) {
        let run = self.nodes[node].run();
        let is_leaf = run.len() <= LEAF_CAPACITY || depth >= MAX_DEPTH;
        if !grouped && (run.len() <= group_cap(self.order.len()) || is_leaf) {
            self.group_of[run.clone()].fill(self.groups.len() as u32);
            self.groups.push(node as u32);
            grouped = true;
        }
        if is_leaf {
            return;
        }
        // Stable counting partition of the run by octant: bodies keep their
        // relative (ascending-index) order inside every child.
        let center = self.nodes[node].center;
        let mut counts = [0u32; 8];
        for (&b, oct) in self.order[run.clone()].iter().zip(&mut self.octants[run.clone()]) {
            let o = octant_of(center, pos[b as usize]);
            *oct = o as u8;
            counts[o] += 1;
        }
        let mut next = [0u32; 8];
        let mut at = run.start as u32;
        for (slot, count) in next.iter_mut().zip(counts) {
            *slot = at;
            at += count;
        }
        let firsts = next;
        for (&b, &oct) in self.order[run.clone()].iter().zip(&self.octants[run.clone()]) {
            let slot = &mut next[oct as usize];
            self.slot_of[*slot as usize] = b;
            *slot += 1;
        }
        self.order[run.clone()].copy_from_slice(&self.slot_of[run]);
        // Children sit together, behind their parent, in octant order.
        let half = self.nodes[node].half / 2.0;
        self.nodes[node].first_child = self.nodes.len() as u32;
        for oct in 0..8 {
            if counts[oct] > 0 {
                let center = self.nodes[node].child_center(oct);
                self.nodes.push(Node::new(center, half, firsts[oct], counts[oct]));
                self.nodes[node].child_count += 1;
            }
        }
        for c in self.nodes[node].children() {
            self.split(c, depth + 1, grouped, pos);
        }
    }

    /// Monopole and velocity moments of every cell: leaves sum their bodies
    /// in run order, internal cells their children in octant order. One
    /// reverse sweep — every child has a larger arena index than its parent.
    fn compute_moments(&mut self) {
        for node in (0..self.nodes.len()).rev() {
            let mut m = 0.0;
            let mut wp = Vec3::zero();
            let mut wv = Vec3::zero();
            if self.nodes[node].is_leaf() {
                for s in self.nodes[node].run() {
                    let bm = self.mass[s];
                    m += bm;
                    wp += self.pos[s] * bm;
                    wv += self.vel[s] * bm;
                }
            } else {
                for cn in &self.nodes[self.nodes[node].children()] {
                    m += cn.mass;
                    wp += cn.com * cn.mass;
                    wv += cn.vcom * cn.mass;
                }
            }
            let n = &mut self.nodes[node];
            n.mass = m;
            if m > 0.0 {
                n.com = wp / m;
                n.vcom = wv / m;
            } else {
                n.com = n.center;
                n.vcom = Vec3::zero();
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of bodies.
    pub fn body_count(&self) -> usize {
        self.pos.len()
    }

    /// Total mass (root moment).
    pub fn total_mass(&self) -> f64 {
        self.nodes[0].mass
    }

    /// Center of mass (root moment).
    pub fn center_of_mass(&self) -> Vec3 {
        self.nodes[0].com
    }

    /// The bodies the tree was built over in tree order: positions,
    /// velocities, masses by slot (the slot of a near entry,
    /// [`InteractionLists::near`]).
    pub fn tree_bodies(&self) -> (&[Vec3], &[Vec3], &[f64]) {
        (&self.pos, &self.vel, &self.mass)
    }

    /// Position, velocity and mass of body `index` (by input index).
    pub fn body(&self, index: usize) -> (Vec3, Vec3, f64) {
        let s = self.slot_of[index] as usize;
        (self.pos[s], self.vel[s], self.mass[s])
    }

    /// Number of groups (see the module docs).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The group of tree body `body` — provided `pos` is where the tree
    /// holds it, so the group's box covers the point. `None` for an index
    /// that is not a tree body (an external probe) and for a body asked
    /// about somewhere else: such a point walks alone
    /// ([`Self::interaction_lists`]).
    pub fn group_of(&self, body: usize, pos: Vec3) -> Option<usize> {
        let slot = *self.slot_of.get(body)? as usize;
        (self.pos[slot] == pos).then(|| self.group_of[slot] as usize)
    }

    /// Members of group `group`, in tree order.
    pub fn group_bodies(&self, group: usize) -> &[u32] {
        &self.order[self.nodes[self.groups[group] as usize].run()]
    }

    /// Axis-aligned bounding box `(lo, hi)` of the members of `group`.
    pub fn group_box(&self, group: usize) -> (Vec3, Vec3) {
        let members = &self.pos[self.nodes[self.groups[group] as usize].run()];
        let first = members[0];
        members.iter().fold((first, first), |(lo, hi), &p| (lo.min(p), hi.max(p)))
    }

    /// Compute the force on a test point with opening angle `theta` and
    /// Plummer softening `eps2`. `skip` excludes one body index
    /// (`u32::MAX` to disable).
    pub fn force_on(&self, pos: Vec3, vel: Vec3, theta: f64, eps2: f64, skip: u32) -> TreeForce {
        let mut out = TreeForce::default();
        self.walk(0, pos, vel, theta, eps2, skip, &mut out);
        out
    }

    #[allow(clippy::too_many_arguments)]
    // grape6-lint: hot
    fn walk(
        &self,
        node: usize,
        pos: Vec3,
        vel: Vec3,
        theta: f64,
        eps2: f64,
        skip: u32,
        out: &mut TreeForce,
    ) {
        let n = &self.nodes[node];
        let d = n.com - pos;
        let dist2 = d.norm2();
        let size = 2.0 * n.half;
        // Barnes-Hut multipole acceptance criterion: s/d < θ.
        if !n.is_leaf() && size * size < theta * theta * dist2 {
            let (a, j, p) = grape6_core::force::pair_force_jerk(d, n.vcom - vel, n.mass, eps2);
            out.acc += a;
            out.jerk += j;
            out.pot += p;
            out.evaluations += 1;
            return;
        }
        if n.is_leaf() {
            for s in n.run() {
                if self.order[s] == skip {
                    continue;
                }
                let (a, j, p) = grape6_core::force::pair_force_jerk(
                    self.pos[s] - pos,
                    self.vel[s] - vel,
                    self.mass[s],
                    eps2,
                );
                out.acc += a;
                out.jerk += j;
                out.pot += p;
                out.evaluations += 1;
            }
            return;
        }
        for c in n.children() {
            self.walk(c, pos, vel, theta, eps2, skip, out);
        }
    }

    /// Emit the GRAPE-style interaction lists for a test point: the bodies
    /// within `r_near` (ascending body index, self included) as near
    /// entries, and every other source — accepted cells as monopole
    /// pseudo-particles, opened-leaf bodies beyond the radius as point
    /// sources — as the far list, in deterministic depth-first octant order.
    ///
    /// The partition is exactly-once by construction: a cell is accepted as
    /// a far source only if it passes the multipole acceptance criterion
    /// **and** its bounding sphere clears the neighbour radius entirely, so
    /// any body within `r_near` of `pos` is always reached through opened
    /// cells and classified by its exact distance. `out` is reset first
    /// (buffers retained — steady-state walks allocate only on list
    /// growth).
    pub fn interaction_lists(
        &self,
        pos: Vec3,
        theta: f64,
        r_near: f64,
        out: &mut InteractionLists,
    ) {
        self.box_lists(pos, pos, theta, r_near, out);
    }

    /// Emit the interaction lists every member of `group` shares (Barnes'
    /// modified algorithm): the walk of [`Self::interaction_lists`] with
    /// every distance measured from the group's bounding box instead of a
    /// point. A cell is accepted iff it passes the acceptance criterion at
    /// its distance from the box — nearer than from any member, so it also
    /// passes each member's own test — and its bounding sphere clears
    /// `r_near` of the box; the near entries are the *candidates*, every
    /// body within `r_near` of the box (ascending; a superset of each
    /// member's own neighbour sphere, and always the members themselves).
    pub fn group_lists(&self, group: usize, theta: f64, r_near: f64, out: &mut InteractionLists) {
        let (lo, hi) = self.group_box(group);
        self.box_lists(lo, hi, theta, r_near, out);
    }

    fn box_lists(&self, lo: Vec3, hi: Vec3, theta: f64, r_near: f64, out: &mut InteractionLists) {
        out.near_len = 0;
        out.far_len = 0;
        out.cells_opened = 0;
        out.far_bodies = 0;
        self.emit(0, lo, hi, theta, r_near, out);
        // Tree order is octant order; the direct-summation contract is
        // ascending body index, the high half of each entry (in place, no
        // allocation).
        out.near[..out.near_len].sort_unstable();
    }

    // grape6-lint: hot
    fn emit(
        &self,
        node: usize,
        lo: Vec3,
        hi: Vec3,
        theta: f64,
        r_near: f64,
        out: &mut InteractionLists,
    ) {
        let n = &self.nodes[node];
        let dist2 = box_dist2(n.com, lo, hi);
        let size = 2.0 * n.half;
        // Barnes-Hut multipole acceptance criterion: s/d < θ — but a cell
        // may only be summarized if no part of it can hold a neighbour
        // (bounding sphere of radius √3·half entirely beyond r_near).
        if !n.is_leaf() && size * size < theta * theta * dist2 {
            let ball = 3.0f64.sqrt() * n.half;
            let center_dist = box_dist2(n.center, lo, hi).sqrt();
            if center_dist - ball > r_near {
                out.make_room(0, 1);
                let f = out.far_len;
                out.far_pos[f] = n.com;
                out.far_vel[f] = n.vcom;
                out.far_mass[f] = n.mass;
                out.far_len = f + 1;
                out.far_bodies += u64::from(n.len);
                return;
            }
        }
        if n.is_leaf() {
            // Every body goes to both the next near and the next far place;
            // its distance test picks the cursor that moves past it. A leaf
            // at MAX_DEPTH may hold more than LEAF_CAPACITY bodies.
            let run = n.run();
            out.make_room(run.len(), run.len());
            let (near0, far0) = (out.near_len, out.far_len);
            let (mut near, mut far) = (near0, far0);
            let r2_near = r_near * r_near;
            let near_buf = &mut out.near[..];
            let (fp, fv, fm) = (&mut out.far_pos[..], &mut out.far_vel[..], &mut out.far_mass[..]);
            for s in run {
                let p = self.pos[s];
                near_buf[near] = (u64::from(self.order[s]) << 32) | s as u64;
                fp[far] = p;
                fv[far] = self.vel[s];
                fm[far] = self.mass[s];
                let is_near = box_dist2(p, lo, hi) <= r2_near;
                near += usize::from(is_near);
                far += usize::from(!is_near);
            }
            (out.near_len, out.far_len) = (near, far);
            out.far_bodies += (far - far0) as u64;
            debug_assert_eq!(near - near0 + far - far0, n.len as usize);
            return;
        }
        out.cells_opened += 1;
        for c in n.children() {
            self.emit(c, lo, hi, theta, r_near, out);
        }
    }
}

/// Near/far interaction lists emitted by [`Octree::interaction_lists`] (for
/// a point) and [`Octree::group_lists`] (for a group of bodies).
/// Reused across walks: each walk overwrites the front of retained buffers,
/// which only grow.
#[derive(Debug, Clone, Default)]
pub struct InteractionLists {
    /// Near entries `body << 32 | slot`, the first `near_len` this walk's:
    /// the bodies within the neighbour radius of the point — or of the
    /// group's box — ascending (the target's own bodies included when they
    /// are tree bodies; callers skip the self term during summation, like
    /// the hardware).
    near: Vec<u64>,
    near_len: usize,
    /// Far sources (cell monopoles with their centre of mass and vcom, and
    /// far leaf bodies), the first `far_len` this walk's.
    far_pos: Vec<Vec3>,
    far_vel: Vec<Vec3>,
    far_mass: Vec<f64>,
    far_len: usize,
    /// Internal cells opened (recursed into) during the walk.
    pub cells_opened: u64,
    /// Bodies represented by the far list (each accepted cell counts its
    /// whole subtree): `near_len() + far_bodies` must equal the body count
    /// — the exactly-once partition invariant.
    pub far_bodies: u64,
}

impl InteractionLists {
    /// Entries across both lists (the GRAPE interaction-list length).
    pub fn len(&self) -> usize {
        self.near_len + self.far_len
    }

    /// True when the walk emitted nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of near entries.
    pub fn near_len(&self) -> usize {
        self.near_len
    }

    /// Number of far sources.
    pub fn far_len(&self) -> usize {
        self.far_len
    }

    /// The near entries as `(body, slot)`, ascending body index: `slot`
    /// indexes [`Octree::tree_bodies`].
    pub fn near(&self) -> impl ExactSizeIterator<Item = (usize, usize)> + '_ {
        let slot_mask = u64::from(u32::MAX);
        self.near[..self.near_len]
            .iter()
            .map(move |&e| ((e >> 32) as usize, (e & slot_mask) as usize))
    }

    /// The near bodies' indices, ascending.
    pub fn near_bodies(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.near[..self.near_len].iter().map(|&e| (e >> 32) as u32)
    }

    /// The far sources: positions, velocities, masses.
    pub fn far(&self) -> (&[Vec3], &[Vec3], &[f64]) {
        let f = self.far_len;
        (&self.far_pos[..f], &self.far_vel[..f], &self.far_mass[..f])
    }

    /// Make sure `near` more near entries and `far` more far sources fit.
    #[inline(always)]
    fn make_room(&mut self, near: usize, far: usize) {
        if self.near_len + near > self.near.len() || self.far_len + far > self.far_pos.len() {
            self.grow(near, far);
        }
    }

    /// Lengthen the buffers to exactly what the next cell needs: their
    /// capacity still grows geometrically, and only entries a walk can
    /// write are ever touched.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, near: usize, far: usize) {
        let near = (self.near_len + near).max(self.near.len());
        let far = (self.far_len + far).max(self.far_pos.len());
        self.near.resize(near, 0);
        self.far_pos.resize(far, Vec3::zero());
        self.far_vel.resize(far, Vec3::zero());
        self.far_mass.resize(far, 0.0);
    }
}

/// The one-by-one insertion build this tree used to be made by, kept as the
/// oracle of the top-down build: bodies enter in index order, a leaf that
/// overflows splits and pushes its bodies down, moments are a recursive
/// post-order sum. It lays its cells out as an [`Octree`] (without groups),
/// bodies in tree order, so the product walks run on it unchanged.
#[cfg(test)]
mod insertion {
    use super::*;

    struct Cell {
        center: Vec3,
        half: f64,
        children: [u32; 8],
        members: Vec<u32>,
        is_leaf: bool,
    }

    fn cell(center: Vec3, half: f64) -> Cell {
        Cell { center, half, children: [0; 8], members: Vec::new(), is_leaf: true }
    }

    fn insert(cells: &mut Vec<Cell>, pos: &[Vec3], at: usize, body: u32, depth: usize) {
        if cells[at].is_leaf {
            if cells[at].members.len() < LEAF_CAPACITY || depth >= MAX_DEPTH {
                cells[at].members.push(body);
                return;
            }
            // Split: push existing bodies down.
            let existing = std::mem::take(&mut cells[at].members);
            cells[at].is_leaf = false;
            for b in existing {
                insert_into_child(cells, pos, at, b, depth);
            }
        }
        insert_into_child(cells, pos, at, body, depth);
    }

    fn insert_into_child(cells: &mut Vec<Cell>, pos: &[Vec3], at: usize, body: u32, depth: usize) {
        let oct = octant_of(cells[at].center, pos[body as usize]);
        if cells[at].children[oct] == 0 {
            let probe = Node::new(cells[at].center, cells[at].half, 0, 0);
            cells[at].children[oct] = cells.len() as u32;
            cells.push(cell(probe.child_center(oct), cells[at].half / 2.0));
        }
        insert(cells, pos, cells[at].children[oct] as usize, body, depth + 1);
    }

    /// Lay cell `at` and its subtree out in `tree` as node `node` (runs in
    /// depth-first octant order, children together) and compute its moments
    /// from the bodies `(pos, vel, mass)`, by index.
    fn lay_out(
        cells: &[Cell],
        bodies: (&[Vec3], &[Vec3], &[f64]),
        tree: &mut Octree,
        at: usize,
        node: usize,
    ) {
        let (pos, vel, mass) = bodies;
        let first = tree.order.len() as u32;
        let (mut m, mut wp, mut wv) = (0.0, Vec3::zero(), Vec3::zero());
        if cells[at].is_leaf {
            for &b in &cells[at].members {
                let bm = mass[b as usize];
                m += bm;
                wp += pos[b as usize] * bm;
                wv += vel[b as usize] * bm;
            }
            tree.order.extend_from_slice(&cells[at].members);
        } else {
            let kids: Vec<usize> =
                cells[at].children.iter().filter(|&&c| c != 0).map(|&c| c as usize).collect();
            let first_child = tree.nodes.len();
            for &c in &kids {
                tree.nodes.push(Node::new(cells[c].center, cells[c].half, 0, 0));
            }
            tree.nodes[node].first_child = first_child as u32;
            tree.nodes[node].child_count = kids.len() as u8;
            for (k, &c) in kids.iter().enumerate() {
                lay_out(cells, bodies, tree, c, first_child + k);
                let cn = &tree.nodes[first_child + k];
                m += cn.mass;
                wp += cn.com * cn.mass;
                wv += cn.vcom * cn.mass;
            }
        }
        let n = &mut tree.nodes[node];
        (n.first, n.len) = (first, tree.order.len() as u32 - first);
        n.mass = m;
        if m > 0.0 {
            n.com = wp / m;
            n.vcom = wv / m;
        } else {
            n.com = n.center;
            n.vcom = Vec3::zero();
        }
    }

    pub fn build(pos: &[Vec3], vel: &[Vec3], mass: &[f64]) -> Octree {
        let (lo, hi) = pos.iter().fold((pos[0], pos[0]), |(lo, hi), &p| (lo.min(p), hi.max(p)));
        let center = (lo + hi) * 0.5;
        let half = ((hi - lo).max_component() * 0.5).max(1e-12) * 1.0000001;
        let mut cells = vec![cell(center, half)];
        for b in 0..pos.len() {
            insert(&mut cells, pos, 0, b as u32, 0);
        }
        let mut tree = Octree::unbuilt();
        tree.nodes.push(Node::new(center, half, 0, 0));
        lay_out(&cells, (pos, vel, mass), &mut tree, 0, 0);
        tree.store_in_tree_order(pos, vel, mass);
        tree
    }
}

/// The recursive, body-indexed list walk the emitter replaced, kept as its
/// oracle: every source is read by body index from arrays in index order and
/// pushed behind the near/far branch.
#[cfg(test)]
mod push_walk {
    use super::*;

    /// Lists as the push walk emits them.
    #[derive(Debug, Default)]
    pub struct Lists {
        pub near: Vec<u32>,
        pub far_pos: Vec<Vec3>,
        pub far_vel: Vec<Vec3>,
        pub far_mass: Vec<f64>,
        pub cells_opened: u64,
        pub far_bodies: u64,
    }

    /// The lists of the box `[lo, hi]` over `tree`, whose bodies are `pos`,
    /// `vel`, `mass` in index order, into `out` (cleared first).
    #[allow(clippy::too_many_arguments)]
    pub fn lists(
        tree: &Octree,
        (pos, vel, mass): (&[Vec3], &[Vec3], &[f64]),
        lo: Vec3,
        hi: Vec3,
        theta: f64,
        r_near: f64,
        out: &mut Lists,
    ) {
        out.near.clear();
        out.far_pos.clear();
        out.far_vel.clear();
        out.far_mass.clear();
        (out.cells_opened, out.far_bodies) = (0, 0);
        walk(tree, (pos, vel, mass), 0, lo, hi, theta, r_near, out);
        out.near.sort_unstable();
    }

    #[allow(clippy::too_many_arguments)]
    fn walk(
        tree: &Octree,
        (pos, vel, mass): (&[Vec3], &[Vec3], &[f64]),
        node: usize,
        lo: Vec3,
        hi: Vec3,
        theta: f64,
        r_near: f64,
        out: &mut Lists,
    ) {
        let n = &tree.nodes[node];
        let dist2 = box_dist2(n.com, lo, hi);
        let size = 2.0 * n.half;
        if !n.is_leaf() && size * size < theta * theta * dist2 {
            let ball = 3.0f64.sqrt() * n.half;
            let center_dist = box_dist2(n.center, lo, hi).sqrt();
            if center_dist - ball > r_near {
                out.far_pos.push(n.com);
                out.far_vel.push(n.vcom);
                out.far_mass.push(n.mass);
                out.far_bodies += n.len as u64;
                return;
            }
        }
        if n.is_leaf() {
            for &b in &tree.order[n.run()] {
                let r2 = box_dist2(pos[b as usize], lo, hi);
                if r2 <= r_near * r_near {
                    out.near.push(b);
                } else {
                    out.far_pos.push(pos[b as usize]);
                    out.far_vel.push(vel[b as usize]);
                    out.far_mass.push(mass[b as usize]);
                    out.far_bodies += 1;
                }
            }
            return;
        }
        out.cells_opened += 1;
        for c in n.children() {
            walk(tree, (pos, vel, mass), c, lo, hi, theta, r_near, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A disk of the paper's shape: `n` bodies on near-circular, slightly
    /// inclined orbits between 15 and 35 AU around a unit mass, the last two
    /// of them protoplanets 300 times heavier at 20 and 30 AU.
    fn paper_disk(n: usize, seed: u64) -> (Vec<Vec3>, Vec<Vec3>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut pos, mut vel, mut mass) = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..n {
            let (a, m) = match n - k {
                2 => (20.0, 3e-5),
                1 => (30.0, 3e-5),
                _ => (15.0 + 20.0 * rng.gen::<f64>(), 1e-7 * (1.0 + rng.gen::<f64>())),
            };
            let (phi, inc, node) = (
                rng.gen::<f64>() * std::f64::consts::TAU,
                0.005 * (rng.gen::<f64>() - 0.5),
                rng.gen::<f64>() * std::f64::consts::TAU,
            );
            let (s, c) = phi.sin_cos();
            let v = (1.0 / a).sqrt();
            let lift = inc * (phi - node).sin();
            pos.push(Vec3::new(a * c, a * s, a * lift));
            vel.push(Vec3::new(-v * s, v * c, v * inc * (phi - node).cos()));
            mass.push(m);
        }
        (pos, vel, mass)
    }

    /// Everything a walk emits, as bits: near body indices, far sources,
    /// cells opened, far bodies.
    type ListBits = (Vec<u32>, Vec<[u64; 7]>, u64, u64);

    fn source_bits(((p, v), m): ((&Vec3, &Vec3), &f64)) -> [u64; 7] {
        [p.x, p.y, p.z, v.x, v.y, v.z, *m].map(f64::to_bits)
    }

    fn product_bits(lists: &InteractionLists) -> ListBits {
        let (fp, fv, fm) = lists.far();
        let far = fp.iter().zip(fv).zip(fm).map(source_bits).collect();
        (lists.near_bodies().collect(), far, lists.cells_opened, lists.far_bodies)
    }

    fn oracle_bits(lists: &push_walk::Lists) -> ListBits {
        let far = lists.far_pos.iter().zip(&lists.far_vel).zip(&lists.far_mass);
        let far = far.map(source_bits).collect();
        (lists.near.clone(), far, lists.cells_opened, lists.far_bodies)
    }

    /// `product_bits(got) == oracle_bits(want)`, without building either.
    fn same_lists(got: &InteractionLists, want: &push_walk::Lists) -> bool {
        let (fp, fv, fm) = got.far();
        let far = fp.iter().zip(fv).zip(fm).map(source_bits);
        let want_far = want.far_pos.iter().zip(&want.far_vel).zip(&want.far_mass);
        (got.cells_opened, got.far_bodies) == (want.cells_opened, want.far_bodies)
            && got.near_bodies().eq(want.near.iter().copied())
            && far.eq(want_far.map(source_bits))
    }

    /// Every group's shared lists and a sample of point walks (bodies and
    /// one probe off the bodies) over `(pos, vel, mass)`, against the
    /// body-indexed push walk, at θ ∈ {0, 0.5, 0.9} and r_near ∈ {0, 1, ∞}.
    fn assert_lists_are_the_push_walks(
        tag: &str,
        (pos, vel, mass): &(Vec<Vec3>, Vec<Vec3>, Vec<f64>),
    ) {
        let tree = Octree::build(pos, vel, mass);
        let bodies = (&pos[..], &vel[..], &mass[..]);
        let probe = pos[0] + Vec3::new(0.25, -0.5, 0.125);
        let points: Vec<Vec3> =
            pos.iter().step_by(1 + pos.len() / 64).copied().chain([probe]).collect();
        let (mut got, mut want) = (InteractionLists::default(), push_walk::Lists::default());
        for theta in [0.0, 0.5, 0.9] {
            for r_near in [0.0, 1.0, 1e30] {
                let tag = format!("{tag} θ={theta} r={r_near}");
                for g in 0..tree.group_count() {
                    tree.group_lists(g, theta, r_near, &mut got);
                    let (lo, hi) = tree.group_box(g);
                    push_walk::lists(&tree, bodies, lo, hi, theta, r_near, &mut want);
                    if !same_lists(&got, &want) {
                        assert_eq!(product_bits(&got), oracle_bits(&want), "{tag} group {g}");
                    }
                }
                for &p in &points {
                    tree.interaction_lists(p, theta, r_near, &mut got);
                    push_walk::lists(&tree, bodies, p, p, theta, r_near, &mut want);
                    if !same_lists(&got, &want) {
                        assert_eq!(product_bits(&got), oracle_bits(&want), "{tag} at {p:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn lists_are_the_push_walks_bit_for_bit() {
        let n = GROUP_MAX + 6; // one leaf run longer than LEAF_CAPACITY
        let pile =
            (vec![Vec3::new(1.0, 1.0, 1.0); n], vec![Vec3::new(0.0, 0.5, 0.0); n], vec![1.0; n]);
        assert_lists_are_the_push_walks("paper disk 2k", &paper_disk(2048, 71));
        assert_lists_are_the_push_walks("cloud", &random_cloud(3000, 73));
        assert_lists_are_the_push_walks("annulus", &annulus(2500, 74));
        assert_lists_are_the_push_walks("coincident pile", &pile);
    }

    /// ~17 s in a release build (θ = 0 makes every group's lists the whole
    /// disk), far longer unoptimised: the release CI step runs it.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "runs in release builds")]
    fn lists_at_32k_are_the_push_walks_bit_for_bit() {
        assert_lists_are_the_push_walks("paper disk 32k", &paper_disk(32_768, 72));
    }

    fn random_cloud(n: usize, seed: u64) -> (Vec<Vec3>, Vec<Vec3>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pos: Vec<Vec3> = (0..n)
            .map(|_| {
                Vec3::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)
                    * 40.0
            })
            .collect();
        let vel: Vec<Vec3> = (0..n)
            .map(|_| {
                Vec3::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)
            })
            .collect();
        let mass: Vec<f64> = (0..n).map(|_| 0.1 + rng.gen::<f64>()).collect();
        (pos, vel, mass)
    }

    #[test]
    fn root_moments_are_global() {
        let (pos, vel, mass) = random_cloud(500, 1);
        let tree = Octree::build(&pos, &vel, &mass);
        let m: f64 = mass.iter().sum();
        assert!((tree.total_mass() - m).abs() < 1e-10);
        let com: Vec3 = pos.iter().zip(&mass).map(|(&p, &mm)| p * mm).sum::<Vec3>() / m;
        assert!((tree.center_of_mass() - com).norm() < 1e-10);
        assert_eq!(tree.body_count(), 500);
        assert!(tree.node_count() > 1);
    }

    /// Every cell in depth-first octant order, down to the bits: geometry,
    /// moments, and the bodies of its run.
    fn cells(tree: &Octree) -> Vec<(Vec<u64>, bool, Vec<u32>)> {
        let mut out = Vec::new();
        let mut stack = vec![0usize];
        while let Some(at) = stack.pop() {
            let n = &tree.nodes[at];
            let bits = [n.center, n.com, n.vcom]
                .iter()
                .flat_map(|v| [v.x, v.y, v.z])
                .chain([n.half, n.mass])
                .map(f64::to_bits)
                .collect();
            out.push((bits, n.is_leaf(), tree.order[n.run()].to_vec()));
            stack.extend(n.children().rev());
        }
        out
    }

    /// A thin annulus, every body at a distinct radius.
    fn annulus(n: usize, seed: u64) -> (Vec<Vec3>, Vec<Vec3>, Vec<f64>) {
        let (unit, vel, mass) = random_cloud(n, seed);
        let pos = unit
            .iter()
            .enumerate()
            .map(|(k, u)| {
                let (r, phi) = (15.0 + 20.0 * k as f64 / n as f64, u.x);
                Vec3::new(r * phi.cos(), r * phi.sin(), u.z * 0.01)
            })
            .collect();
        (pos, vel, mass)
    }

    #[test]
    fn top_down_build_is_the_insertion_tree_bit_for_bit() {
        let coincident = {
            // `handles_coincident_bodies`' pile, inside a cloud.
            let (mut pos, vel, mass) = random_cloud(40, 21);
            for p in &mut pos[5..5 + LEAF_CAPACITY + 2] {
                *p = Vec3::new(1.0, 1.0, 1.0);
            }
            (pos, vel, mass)
        };
        let massless = {
            let (pos, vel, mut mass) = random_cloud(300, 22);
            mass.iter_mut().step_by(2).for_each(|m| *m = 0.0);
            (pos, vel, mass)
        };
        let pile = (vec![Vec3::new(1.0, 1.0, 1.0); 70], vec![Vec3::zero(); 70], vec![1.0; 70]);
        let inputs = [
            ("cloud 9", random_cloud(9, 11)),
            ("cloud 700", random_cloud(700, 12)),
            ("cloud 5000", random_cloud(5000, 13)),
            ("annulus", annulus(3000, 14)),
            ("coincident", coincident),
            ("coincident pile", pile),
            ("massless", massless),
            ("single", random_cloud(1, 15)),
        ];
        let (mut got, mut want) = (InteractionLists::default(), InteractionLists::default());
        for (tag, (pos, vel, mass)) in &inputs {
            let tree = Octree::build(pos, vel, mass);
            let oracle = insertion::build(pos, vel, mass);
            assert_eq!(tree.node_count(), oracle.node_count(), "{tag}: node count");
            assert_eq!(cells(&tree), cells(&oracle), "{tag}: cells");
            for &(theta, r_near) in &[(0.0, 1e30), (0.5, 0.0), (0.5, 1.0), (0.75, 3.0)] {
                for p in pos.iter().step_by(1 + pos.len() / 40) {
                    tree.interaction_lists(*p, theta, r_near, &mut got);
                    oracle.interaction_lists(*p, theta, r_near, &mut want);
                    let tag = format!("{tag} θ={theta} r={r_near} at {p:?}");
                    assert_eq!(product_bits(&got), product_bits(&want), "{tag}");
                }
            }
        }
    }

    #[test]
    fn rebuild_reuses_the_arena_and_forgets_the_old_tree() {
        let (pos, vel, mass) = random_cloud(900, 31);
        let mut tree = Octree::build(&pos, &vel, &mass);
        let (pos, vel, mass) = annulus(400, 32);
        tree.rebuild(&pos, &vel, &mass);
        let fresh = Octree::build(&pos, &vel, &mass);
        assert_eq!(cells(&tree), cells(&fresh));
        assert_eq!(tree.groups, fresh.groups);
        assert_eq!(tree.group_of, fresh.group_of);
    }

    #[test]
    fn groups_are_the_maximal_cells_of_at_most_group_cap_bodies() {
        assert_eq!(
            [100, 802, 2047, 2048, 40_000].map(group_cap),
            [1, 12, 31, GROUP_MAX, GROUP_MAX]
        );
        for (pos, vel, mass) in [random_cloud(3000, 41), annulus(900, 42), random_cloud(30, 43)] {
            let tree = Octree::build(&pos, &vel, &mass);
            let cap = group_cap(pos.len());
            let mut seen = vec![false; pos.len()];
            for g in 0..tree.group_count() {
                let bodies = tree.group_bodies(g);
                assert!(!bodies.is_empty() && bodies.len() <= cap.max(LEAF_CAPACITY));
                let (lo, hi) = tree.group_box(g);
                for &b in bodies {
                    assert!(!std::mem::replace(&mut seen[b as usize], true), "body {b} twice");
                    assert_eq!(tree.group_of(b as usize, pos[b as usize]), Some(g));
                    let p = pos[b as usize];
                    assert!(lo.min(p) == lo && hi.max(p) == hi, "body {b} outside its box");
                }
            }
            assert!(seen.iter().all(|&s| s), "a body is in no group");
            // Maximal: down every path from the root, the first cell that
            // holds at most `cap` bodies (or is a leaf) is a group.
            let (mut stack, mut found) = (vec![0usize], 0);
            while let Some(at) = stack.pop() {
                let n = &tree.nodes[at];
                if n.len as usize <= cap || n.is_leaf() {
                    assert!(tree.groups.contains(&(at as u32)), "cell {at} is not a group");
                    found += 1;
                } else {
                    stack.extend(n.children());
                }
            }
            assert_eq!(found, tree.group_count());
            // A probe, or a body asked about elsewhere, has no group.
            assert_eq!(tree.group_of(pos.len(), pos[0]), None);
            assert_eq!(tree.group_of(usize::MAX, pos[0]), None);
            assert_eq!(tree.group_of(0, pos[0] + Vec3::new(1.0, 0.0, 0.0)), None);
        }
        // Coincident bodies piled deeper than the tree subdivides are one
        // oversized group.
        let pile = vec![Vec3::new(1.0, 1.0, 1.0); GROUP_MAX + 6];
        let tree = Octree::build(&pile, &vec![Vec3::zero(); pile.len()], &vec![1.0; pile.len()]);
        assert_eq!(tree.group_count(), 1);
        assert_eq!(tree.group_bodies(0).len(), GROUP_MAX + 6);
    }

    #[test]
    fn group_lists_cover_every_members_point_lists() {
        // The shared list is at least as careful as each member's own walk:
        // every candidate set contains the member's neighbour sphere, and
        // the partition stays exactly-once.
        let (pos, vel, mass) = annulus(2500, 51);
        let tree = Octree::build(&pos, &vel, &mass);
        let (mut shared, mut own) = (InteractionLists::default(), InteractionLists::default());
        for &(theta, r_near) in &[(0.5, 0.0), (0.5, 1.0), (0.75, 3.0), (0.0, 1e30)] {
            for g in (0..tree.group_count()).step_by(7) {
                tree.group_lists(g, theta, r_near, &mut shared);
                assert_eq!(shared.near_len() as u64 + shared.far_bodies, 2500);
                let candidates: Vec<u32> = shared.near_bodies().collect();
                assert!(candidates.windows(2).all(|w| w[0] < w[1]));
                for &b in tree.group_bodies(g) {
                    tree.interaction_lists(pos[b as usize], theta, r_near, &mut own);
                    assert!(own.near_bodies().all(|j| candidates.binary_search(&j).is_ok()));
                    assert!(shared.cells_opened >= own.cells_opened);
                }
            }
        }
    }

    #[test]
    fn massless_bodies_stay_in_the_lists() {
        // A leaf of test particles has zero mass but not zero bodies: it
        // must reach the near list (they are neighbours) or be counted as a
        // zero-force far source.
        let (pos, vel, mut mass) = random_cloud(43, 61);
        mass.iter_mut().step_by(2).for_each(|m| *m = 0.0);
        let tree = Octree::build(&pos, &vel, &mass);
        let mut lists = InteractionLists::default();
        for &(theta, r_near) in &[(0.0, 1e30), (0.6, 0.0), (0.6, 5.0)] {
            for p in &pos {
                tree.interaction_lists(*p, theta, r_near, &mut lists);
                assert_eq!(lists.near_len() as u64 + lists.far_bodies, 43, "θ={theta} r={r_near}");
            }
        }
        tree.interaction_lists(pos[1], 0.0, 1e30, &mut lists);
        assert!(lists.near_bodies().eq(0..43u32));
        let all_massless = Octree::build(&pos, &vel, &vec![0.0; 43]);
        let f = all_massless.force_on(pos[0], vel[0], 0.5, 0.01, 0);
        assert_eq!((f.acc, f.pot), (Vec3::zero(), 0.0));
        assert!(f.evaluations > 0, "massless cells are still walked");
    }

    // The accuracy contracts formerly pinned here by ad-hoc epsilons
    // (`theta_zero_reproduces_direct_sum`, `moderate_theta_is_accurate_and_
    // cheap`) now live in `tests/tree_accuracy.rs`, where the budget is
    // derived from the shared conformance oracle instead of guessed.

    #[test]
    fn interaction_lists_partition_exactly_once() {
        let (pos, vel, mass) = random_cloud(600, 8);
        let tree = Octree::build(&pos, &vel, &mass);
        let mut lists = InteractionLists::default();
        for &theta in &[0.0, 0.5, 0.9] {
            for &r_near in &[0.0, 2.0, 1e30] {
                for i in [0usize, 100, 599] {
                    tree.interaction_lists(pos[i], theta, r_near, &mut lists);
                    // Exactly-once: every body is a neighbour or a far body
                    // (inside exactly one accepted cell / far leaf entry).
                    assert_eq!(
                        lists.near_len() as u64 + lists.far_bodies,
                        600,
                        "theta={theta} r={r_near} i={i}"
                    );
                    // Near membership is exact radius membership, ascending.
                    let near: Vec<u32> = lists.near_bodies().collect();
                    for w in near.windows(2) {
                        assert!(w[0] < w[1], "near list not strictly ascending");
                    }
                    for &b in &near {
                        assert!((pos[b as usize] - pos[i]).norm2() <= r_near * r_near);
                    }
                }
            }
        }
    }

    #[test]
    fn full_radius_list_is_the_identity_and_theta0_opens_everything() {
        let (pos, vel, mass) = random_cloud(150, 9);
        let tree = Octree::build(&pos, &vel, &mass);
        let mut lists = InteractionLists::default();
        tree.interaction_lists(pos[3], 0.0, 1e30, &mut lists);
        assert!(lists.near_bodies().eq(0..150u32));
        assert_eq!(lists.far_len(), 0, "theta = 0 must accept no cells");
        assert_eq!(lists.far_bodies, 0);
    }

    #[test]
    fn far_list_masses_conserve_total_mass() {
        let (pos, vel, mass) = random_cloud(400, 10);
        let tree = Octree::build(&pos, &vel, &mass);
        let mut lists = InteractionLists::default();
        tree.interaction_lists(pos[0], 0.7, 3.0, &mut lists);
        assert!(lists.far_len() > 0, "moderate theta should accept cells");
        let near_m: f64 = lists.near_bodies().map(|b| mass[b as usize]).sum();
        let far_m: f64 = lists.far().2.iter().sum();
        let total: f64 = mass.iter().sum();
        assert!(
            ((near_m + far_m) - total).abs() < 1e-10 * total,
            "mass leaked across the near/far partition"
        );
    }

    #[test]
    fn opening_angle_trades_cost_for_accuracy() {
        let (pos, vel, mass) = random_cloud(3000, 4);
        let tree = Octree::build(&pos, &vel, &mass);
        let f_tight = tree.force_on(pos[0], vel[0], 0.3, 0.01, 0);
        let f_loose = tree.force_on(pos[0], vel[0], 1.0, 0.01, 0);
        assert!(f_loose.evaluations < f_tight.evaluations);
        let direct = grape6_core::force::accumulate_on(pos[0], vel[0], &pos, &vel, &mass, 0.01, 0);
        let e_tight = (f_tight.acc - direct.acc).norm();
        let e_loose = (f_loose.acc - direct.acc).norm();
        assert!(e_tight <= e_loose + 1e-15);
    }

    #[test]
    fn cost_scales_sub_quadratically() {
        let eps2 = 0.01;
        let mut evals = Vec::new();
        for &n in &[1000usize, 4000] {
            let (pos, vel, mass) = random_cloud(n, 5);
            let tree = Octree::build(&pos, &vel, &mass);
            let mut total = 0u64;
            for i in (0..n).step_by(n / 50) {
                total += tree.force_on(pos[i], vel[i], 0.7, eps2, i as u32).evaluations;
            }
            evals.push(total as f64 / 50.0);
        }
        // 4× bodies should cost ≪ 4× per-particle evaluations (O(log N) growth).
        let growth = evals[1] / evals[0];
        assert!(growth < 2.5, "per-particle cost growth {growth} ≥ 2.5");
    }

    #[test]
    fn handles_coincident_bodies() {
        // LEAF_CAPACITY+2 bodies at the same point must not recurse forever.
        let n = LEAF_CAPACITY + 2;
        let pos = vec![Vec3::new(1.0, 1.0, 1.0); n];
        let vel = vec![Vec3::zero(); n];
        let mass = vec![1.0; n];
        let tree = Octree::build(&pos, &vel, &mass);
        let f = tree.force_on(Vec3::zero(), Vec3::zero(), 0.5, 0.0, u32::MAX);
        // All mass at distance √3.
        let expect = n as f64 / 3.0;
        assert!((f.acc.norm() - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn single_body_tree() {
        let tree = Octree::build(&[Vec3::new(2.0, 0.0, 0.0)], &[Vec3::zero()], &[3.0]);
        let f = tree.force_on(Vec3::zero(), Vec3::zero(), 0.5, 0.0, u32::MAX);
        assert!((f.acc.x - 0.75).abs() < 1e-14);
        assert_eq!(f.evaluations, 1);
    }

    #[test]
    #[should_panic]
    fn empty_tree_panics() {
        Octree::build(&[], &[], &[]);
    }
}
