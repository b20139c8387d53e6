//! Offline stand-in for `rayon`: every `par_*` entry point runs
//! sequentially on the calling thread.
//!
//! The workspace treats rayon as an optional accelerator, not a semantic
//! dependency — callers must produce identical results at any worker
//! count. Running the "parallel" iterators inline preserves semantics at
//! the cost of single-threaded throughput. (`gpu-sim` does not use this
//! crate: its launch loop is sequential by design, so its determinism
//! does not hinge on what a `par_iter` does.)

/// Sequential counterpart of `rayon::prelude`.
pub mod prelude {
    /// `IntoParallelIterator` that hands back the ordinary iterator.
    pub trait IntoParallelIterator {
        type Item;
        type Iter: Iterator<Item = Self::Item>;
        fn into_par_iter(self) -> Self::Iter;
    }

    impl<I: IntoIterator> IntoParallelIterator for I {
        type Item = I::Item;
        type Iter = I::IntoIter;
        fn into_par_iter(self) -> Self::Iter {
            self.into_iter()
        }
    }

    /// Shared-slice `par_*` methods, mapped to their sequential versions.
    pub trait ParallelSlice<T> {
        fn par_iter(&self) -> std::slice::Iter<'_, T>;
        fn par_chunks(&self, size: usize) -> std::slice::Chunks<'_, T>;
    }

    impl<T: Sync> ParallelSlice<T> for [T] {
        fn par_iter(&self) -> std::slice::Iter<'_, T> {
            self.iter()
        }
        fn par_chunks(&self, size: usize) -> std::slice::Chunks<'_, T> {
            self.chunks(size)
        }
    }

    /// Mutable-slice `par_*` methods, mapped to their sequential versions.
    pub trait ParallelSliceMut<T> {
        fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T>;
        fn par_chunks_mut(&mut self, size: usize) -> std::slice::ChunksMut<'_, T>;
        fn par_sort_unstable(&mut self)
        where
            T: Ord;
        fn par_sort_unstable_by_key<K: Ord, F: FnMut(&T) -> K>(&mut self, key: F);
        fn par_sort_by_key<K: Ord, F: FnMut(&T) -> K>(&mut self, key: F);
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
            self.iter_mut()
        }
        fn par_chunks_mut(&mut self, size: usize) -> std::slice::ChunksMut<'_, T> {
            self.chunks_mut(size)
        }
        fn par_sort_unstable(&mut self)
        where
            T: Ord,
        {
            self.sort_unstable();
        }
        fn par_sort_unstable_by_key<K: Ord, F: FnMut(&T) -> K>(&mut self, key: F) {
            self.sort_unstable_by_key(key);
        }
        fn par_sort_by_key<K: Ord, F: FnMut(&T) -> K>(&mut self, key: F) {
            self.sort_by_key(key);
        }
    }

    /// Extension adding rayon-only adapters to ordinary iterators so code
    /// written against `ParallelIterator` keeps compiling.
    pub trait ParallelIterator: Iterator + Sized {
        fn with_min_len(self, _len: usize) -> Self {
            self
        }
        fn with_max_len(self, _len: usize) -> Self {
            self
        }
        fn for_each_with<S, F>(self, mut state: S, mut f: F)
        where
            F: FnMut(&mut S, Self::Item),
        {
            for item in self {
                f(&mut state, item);
            }
        }
    }

    impl<I: Iterator> ParallelIterator for I {}
}

/// Run two closures "in parallel" (sequentially here), returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB,
{
    (a(), b())
}

/// Sequential counterpart of `rayon::scope`.
pub fn scope<'scope, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R,
{
    f(&Scope {
        _marker: std::marker::PhantomData,
    })
}

/// Scope handle whose `spawn` runs the task immediately.
pub struct Scope<'scope> {
    _marker: std::marker::PhantomData<&'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Run `body` inline.
    pub fn spawn<Body>(&self, body: Body)
    where
        Body: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        body(self);
    }
}

/// Number of "worker threads" — always 1 for the sequential shim.
pub fn current_num_threads() -> usize {
    1
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_matches_iter() {
        let v = vec![1, 2, 3];
        let s: i32 = v.par_iter().sum();
        assert_eq!(s, 6);
        let doubled: Vec<i32> = v.into_par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6]);
    }

    #[test]
    fn par_sort_sorts() {
        let mut v = vec![3u32, 1, 2];
        v.par_sort_unstable_by_key(|x| *x);
        assert_eq!(v, vec![1, 2, 3]);
    }
}
