use dmf_ratio::{FluidId, Mixture, RatioError};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Dense content class of a droplet: an index into a [`ClassTable`].
///
/// Within one table, two droplets have the same class exactly when they
/// have the same (canonical) content, so comparing classes compares
/// mixtures in O(1). Classes of different tables are unrelated numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub(crate) u32);

impl ClassId {
    /// The table index of this class.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The distinct droplet contents of a family of mixing graphs.
///
/// Class `i < fluid_count` is pure reagent `x_{i+1}`; every later class is
/// a mix result, interned once: [`crate::GraphBuilder::mix`] resolves an
/// operand pair `(left class, right class)` through a memo and runs
/// [`Mixture::mix`] only for a pair the table has not seen. A mixing-tree
/// template interns all of its contents when it is built, so a forest
/// rebuilt from it over the same table never computes a mixture.
///
/// Graphs and builders share a table through an `Arc`; it is append-only,
/// so a class id keeps its meaning in every extension of the table. The
/// indexes are flat arrays with intrusive chains, so interning a content
/// allocates nothing beyond amortised growth.
#[derive(Debug, Clone)]
pub struct ClassTable {
    fluid_count: usize,
    /// The pure reagents: class `i` is reagent `i`.
    pure: Arc<[Mixture]>,
    /// The mix results: class `pure.len() + i` is `mixed[i]`.
    mixed: Vec<Mixture>,
    /// Content hash → the newest non-pure class with that hash; older
    /// classes of the same hash follow `Links::same_hash`.
    by_hash: HashMap<u64, u32, BuildHasherDefault<WordHasher>>,
    links: Vec<Links>,
    pairs: Vec<Pair>,
}

/// The chain heads of one class.
#[derive(Debug, Clone, Copy)]
struct Links {
    /// The previous class with the same content hash.
    same_hash: u32,
    /// The class's newest memoised pair as the left operand (an index into
    /// `pairs`); older ones follow `Pair::next`.
    first_pair: u32,
}

/// A class with no chains yet.
const UNLINKED: Links = Links { same_hash: NONE, first_pair: NONE };

/// Classes a new table makes room for beyond the pure reagents: a
/// typical mixing tree's distinct mix results.
const INITIAL_MIXES: usize = 16;

/// Largest fluid set whose pure-reagent mixtures a thread keeps for reuse.
const CACHED_FLUID_SETS: usize = 64;

/// The pure reagents of a `fluid_count`-fluid set, shared by every table
/// a thread makes for that fluid set (so a new table allocates no
/// reagent vectors).
fn pure_reagents(fluid_count: usize) -> Arc<[Mixture]> {
    let make = || (0..fluid_count).filter_map(|f| Mixture::try_pure(f, fluid_count).ok()).collect();
    if fluid_count > CACHED_FLUID_SETS {
        return make();
    }
    thread_local! {
        static PURE: RefCell<Vec<Option<Arc<[Mixture]>>>> = const { RefCell::new(Vec::new()) };
    }
    PURE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.len() <= fluid_count {
            cache.resize(fluid_count + 1, None);
        }
        Arc::clone(cache[fluid_count].get_or_insert_with(make))
    })
}

/// One memoised mix: `(left, right) → result`, chained per left class.
#[derive(Debug, Clone, Copy)]
struct Pair {
    right: ClassId,
    result: ClassId,
    next: u32,
}

/// End of an intrusive chain.
const NONE: u32 = u32::MAX;

impl ClassTable {
    /// A table holding the pure reagents of a `fluid_count`-fluid set.
    pub fn new(fluid_count: usize) -> Self {
        let pure = pure_reagents(fluid_count);
        let mut links = Vec::with_capacity(pure.len() + INITIAL_MIXES);
        links.resize(pure.len(), UNLINKED);
        ClassTable {
            fluid_count,
            pure,
            mixed: Vec::with_capacity(INITIAL_MIXES),
            by_hash: HashMap::with_capacity_and_hasher(
                INITIAL_MIXES,
                BuildHasherDefault::default(),
            ),
            links,
            pairs: Vec::with_capacity(INITIAL_MIXES),
        }
    }

    /// Number of fluids in the underlying fluid set.
    pub fn fluid_count(&self) -> usize {
        self.fluid_count
    }

    /// Number of classes (pure reagents included).
    pub fn len(&self) -> usize {
        self.pure.len() + self.mixed.len()
    }

    /// Whether the table has no class (only for an empty fluid set).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The content of `class`, or `None` for a class of another table.
    pub fn get(&self, class: ClassId) -> Option<&Mixture> {
        match class.index().checked_sub(self.pure.len()) {
            None => self.pure.get(class.index()),
            Some(mixed) => self.mixed.get(mixed),
        }
    }

    /// The class of `mixture`, if the table holds that content.
    pub fn find(&self, mixture: &Mixture) -> Option<ClassId> {
        match self.pure_of(mixture) {
            Some(fluid) => Some(ClassId(fluid.0 as u32)),
            None => self.find_hashed(mixture, content_hash(mixture)),
        }
    }

    /// The class of pure reagent `fluid`.
    ///
    /// # Errors
    ///
    /// As [`Mixture::try_pure`]: the fluid must lie in the fluid set.
    pub fn pure(&self, fluid: FluidId) -> Result<ClassId, RatioError> {
        if fluid.0 < self.fluid_count {
            Ok(ClassId(fluid.0 as u32))
        } else if self.fluid_count == 0 {
            Err(RatioError::Empty)
        } else {
            Err(RatioError::FluidOutOfRange { fluid: fluid.0, count: self.fluid_count })
        }
    }

    /// The memoised class of mixing `left` with `right`, if that pair was
    /// mixed over this table before.
    pub(crate) fn mixed(&self, left: ClassId, right: ClassId) -> Option<ClassId> {
        let mut at = self.links.get(left.index())?.first_pair;
        while let Some(pair) = self.pairs.get(at as usize) {
            if pair.right == right {
                return Some(pair.result);
            }
            at = pair.next;
        }
        None
    }

    /// The class of mixing `left` with `right`: from the pair memo, or
    /// computed once by [`Mixture::mix`] and interned.
    pub(crate) fn mix(&mut self, left: ClassId, right: ClassId) -> Result<ClassId, RatioError> {
        if let Some(class) = self.mixed(left, right) {
            return Ok(class);
        }
        let mixture = match (self.get(left), self.get(right)) {
            (Some(l), Some(r)) => l.mix(r)?,
            // Callers pass classes of this table; a foreign class has no
            // content to mix.
            _ => return Err(RatioError::Empty),
        };
        let result = self.intern(mixture);
        let links = &mut self.links[left.index()];
        let next = std::mem::replace(&mut links.first_pair, self.pairs.len() as u32);
        self.pairs.push(Pair { right, result, next });
        Ok(result)
    }

    /// The class of `mixture`, adding it when the content is new.
    pub(crate) fn intern(&mut self, mixture: Mixture) -> ClassId {
        if let Some(fluid) = self.pure_of(&mixture) {
            return ClassId(fluid.0 as u32);
        }
        let hash = content_hash(&mixture);
        if let Some(class) = self.find_hashed(&mixture, hash) {
            return class;
        }
        let class = self.len() as u32;
        self.mixed.push(mixture);
        let same_hash = self.by_hash.insert(hash, class).unwrap_or(NONE);
        self.links.push(Links { same_hash, ..UNLINKED });
        ClassId(class)
    }

    /// The non-pure class of `mixture`, whose content hash is `hash`.
    fn find_hashed(&self, mixture: &Mixture, hash: u64) -> Option<ClassId> {
        let mut at = *self.by_hash.get(&hash)?;
        while let Some(candidate) = self.get(ClassId(at)) {
            if candidate == mixture {
                return Some(ClassId(at));
            }
            at = self.links[at as usize].same_hash;
        }
        None
    }

    /// The reagent a pure content of this fluid set is, if it is one.
    fn pure_of(&self, mixture: &Mixture) -> Option<FluidId> {
        if mixture.fluid_count() != self.fluid_count {
            return None;
        }
        mixture.as_pure()
    }
}

fn content_hash(mixture: &Mixture) -> u64 {
    let mut hasher = WordHasher::default();
    mixture.hash(&mut hasher);
    hasher.finish()
}

/// A deterministic word-at-a-time hasher for interned contents: a
/// mixture hashes as its level and its parts, whole 64-bit words each, so
/// interning a new content costs a few multiplies rather than a byte-wise
/// SipHash pass. Table contents are internal, never attacker-chosen keys.
#[derive(Debug, Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

impl std::ops::Index<ClassId> for ClassTable {
    type Output = Mixture;

    /// # Panics
    ///
    /// Panics if `class` does not belong to this table.
    fn index(&self, class: ClassId) -> &Mixture {
        match class.index().checked_sub(self.pure.len()) {
            None => &self.pure[class.index()],
            Some(mixed) => &self.mixed[mixed],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_reagents_come_first() {
        let table = ClassTable::new(3);
        assert_eq!(table.len(), 3);
        assert_eq!(table.pure(FluidId(2)).unwrap(), ClassId(2));
        assert_eq!(table[ClassId(1)], Mixture::try_pure(1, 3).unwrap());
        assert!(table.pure(FluidId(3)).is_err());
        assert!(ClassTable::new(0).pure(FluidId(0)).is_err());
    }

    #[test]
    fn equal_contents_share_one_class() {
        let mut table = ClassTable::new(2);
        let half = table.mix(ClassId(0), ClassId(1)).unwrap();
        assert_eq!(table.mix(ClassId(1), ClassId(0)).unwrap(), half);
        // Mixing a content with itself reproduces it.
        assert_eq!(table.mix(half, half).unwrap(), half);
        assert_eq!(table.mix(ClassId(0), ClassId(0)).unwrap(), ClassId(0));
        assert_eq!(table.len(), 3);
        assert_eq!(table.find(&Mixture::new(2, vec![2, 2]).unwrap()), Some(half));
    }

    #[test]
    fn foreign_fluid_sets_intern_apart() {
        let mut table = ClassTable::new(2);
        let foreign = table.intern(Mixture::try_pure(0, 3).unwrap());
        assert_eq!(foreign, ClassId(2));
        assert_eq!(table.find(&Mixture::try_pure(0, 2).unwrap()), Some(ClassId(0)));
        assert!(table.mix(ClassId(0), foreign).is_err());
    }
}
