//! A simulated mobile-robot patrol: the motivating scenario of the paper
//! (semantic mapping / health-and-safety inspection with HanS-like
//! robots).
//!
//! The robot visits a sequence of "rooms", each containing a few objects.
//! Every sighting is segmented (black-mask crop), classified against the
//! ShapeNet catalog, and — because ShapeNet labels are WordNet synsets —
//! grounded into a concept map: the task-agnostic knowledge-acquisition
//! loop the paper argues for.
//!
//! ```text
//! cargo run --release --example robot_patrol
//! ```

use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use taor::core::prelude::*;
use taor::data::{render_scene_crop, sample_model, shapenet_set1, ObjectClass};

/// One room of the patrol route.
struct Room {
    name: &'static str,
    objects: Vec<ObjectClass>,
}

fn patrol_route() -> Vec<Room> {
    vec![
        Room {
            name: "office",
            objects: vec![
                ObjectClass::Chair,
                ObjectClass::Table,
                ObjectClass::Paper,
                ObjectClass::Lamp,
                ObjectClass::Book,
            ],
        },
        Room {
            name: "kitchen",
            objects: vec![ObjectClass::Bottle, ObjectClass::Table, ObjectClass::Window],
        },
        Room {
            name: "lounge",
            objects: vec![
                ObjectClass::Sofa,
                ObjectClass::Lamp,
                ObjectClass::Door,
                ObjectClass::Box,
            ],
        },
    ]
}

fn main() -> taor::core::Result<()> {
    let seed = 2019u64;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);

    // Reference catalog, preprocessed once at robot start-up.
    let catalog = shapenet_set1(seed);
    let refs = prepare_views(&catalog, Background::White);
    let hybrid = HybridConfig::default();
    let diag = Diagnostics::new();

    let mut semantic_map: BTreeMap<&'static str, Vec<(String, &'static str)>> = BTreeMap::new();
    let mut correct = 0usize;
    let mut total = 0usize;

    for room in patrol_route() {
        println!("\n== entering {} ==", room.name);
        for &truth in &room.objects {
            // The robot sees a fresh instance of the class under room
            // lighting, segments it, and classifies the crop.
            let model = sample_model(truth, &mut rng);
            let crop = render_scene_crop(&model, &mut rng);
            let query =
                RefView { class: truth, model_id: 0, feat: preprocess(&crop, Background::Black) };
            let query = std::slice::from_ref(&query);
            let pred =
                try_classify_hybrid(query, &refs, &hybrid, Aggregation::WeightedSum, &diag)?[0];

            total += 1;
            let ok = pred == truth;
            if ok {
                correct += 1;
            }
            // Ground the recognised entity in the synset graph.
            let synset = pred.synset();
            println!(
                "  saw a {:<7} -> recognised {:<7} {}  [{} -> {}]",
                truth.name(),
                pred.name(),
                if ok { "ok " } else { "MISS" },
                synset.id,
                synset.hypernyms.join(" -> "),
            );
            semantic_map
                .entry(room.name)
                .or_default()
                .push((pred.name().to_string(), synset.hypernyms[0]));
        }
        // A health-and-safety rule over the grounded concepts (the HanS
        // use case [2] the paper cites): flag rooms whose doorway area
        // might be blocked.
        let blockers = room
            .objects
            .iter()
            .filter(|c| matches!(c, ObjectClass::Box | ObjectClass::Chair))
            .count();
        if blockers > 0 && room.objects.contains(&ObjectClass::Door) {
            println!("  [H&S] potential obstruction near the door ({blockers} movable objects)");
        }
    }

    println!("\n== semantic map ==");
    for (room, entries) in &semantic_map {
        let summary: Vec<String> =
            entries.iter().map(|(name, hyper)| format!("{name}({hyper})")).collect();
        println!("  {room}: {}", summary.join(", "));
    }
    println!(
        "\npatrol recognition rate: {}/{} = {:.2}",
        correct,
        total,
        correct as f64 / total as f64
    );

    // Seeded rng: a rerun reproduces the identical patrol.
    let _ = rng.gen::<u32>();
    Ok(())
}
