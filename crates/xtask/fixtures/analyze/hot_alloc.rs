//! BNS-A005 fixture: `hot_entry` reaches three allocation shapes via
//! `stage`; the arena `take` is the sanctioned cut, so its own
//! allocation must NOT be reported. `hot_entry_async` reaches a fourth
//! through an `async fn` and `.await`.

pub struct Arena {
    buf: Vec<f32>,
}

impl Arena {
    pub fn take(&mut self) -> Vec<f32> {
        let grown = self.buf.to_vec();
        grown
    }
}

pub fn hot_entry(arena: &mut Arena) -> Vec<f32> {
    let mut out = arena.take();
    out.extend_from_slice(&stage());
    out
}

fn stage() -> Vec<f32> {
    let mut acc: Vec<f32> = Vec::new();
    acc.extend_from_slice(&vec![0.0f32; 4]);
    acc.to_vec()
}

/// The same reachability through an `async fn` and `.await`.
pub async fn hot_entry_async(arena: &mut Arena) -> Vec<f32> {
    let mut out = arena.take();
    out.extend_from_slice(&stage_async().await);
    out
}

async fn stage_async() -> Vec<f32> {
    vec![1.0f32; 2]
}
