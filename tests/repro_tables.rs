//! Integration: the repro harness regenerates every table with the
//! expected layout on a miniature configuration.

use taor_bench::repro::{
    table1_with, table2_with, table3_ex_with, table5_with, table6_with, table7or8_with, table9_with,
};
use taor_bench::{PreparedRepro, ReproConfig};
use taor_core::SiameseConfig;

fn mini() -> PreparedRepro {
    let mut cfg = ReproConfig::quick(2019);
    cfg.nyu_per_class = Some(6);
    cfg.siamese = SiameseConfig::quick();
    PreparedRepro::new(cfg)
}

#[test]
fn table1_lists_all_classes_and_totals() {
    let out = table1_with(&mini());
    for name in [
        "Chair", "Bottle", "Paper", "Book", "Table", "Box", "Window", "Door", "Sofa", "Lamp",
        "Total",
    ] {
        assert!(out.text.contains(name), "missing {name}:\n{}", out.text);
    }
    assert!(out.text.contains("82"));
    assert!(out.text.contains("100"));
}

#[test]
fn table2_rows_match_paper_layout() {
    let out = table2_with(&mini());
    let expected_rows = [
        "Baseline",
        "Shape only L1",
        "Shape only L2",
        "Shape only L3",
        "Color only Correlation",
        "Color only Chi-square",
        "Color only Intersection",
        "Color only Hellinger",
        "Shape+Color (weighted sum)",
        "Shape+Color (micro-avg)",
        "Shape+Color (macro-avg)",
    ];
    for row in expected_rows {
        assert!(out.text.contains(row), "missing row {row}");
    }
    assert_eq!(out.records.len(), 22);
    for rec in &out.records {
        let acc = rec.cumulative_accuracy.expect("table 2 rows carry accuracy");
        assert!((0.0..=1.0).contains(&acc));
    }
}

#[test]
fn table3_reports_both_ratio_thresholds() {
    let out = table3_ex_with(&mini(), false);
    assert!(out.text.contains("ratio 0.5"));
    assert!(out.text.contains("ratio 0.75"));
    for label in ["SIFT", "SURF", "ORB"] {
        assert!(out.text.contains(label));
    }
}

#[test]
fn classwise_tables_have_four_measures() {
    let prep = mini();
    for out in
        [table5_with(&prep), table6_with(&prep), table7or8_with(&prep, 7), table9_with(&prep)]
    {
        for measure in ["Accuracy", "Precision", "Recall", "F1"] {
            assert!(out.text.contains(measure), "table {} missing {measure}", out.table);
        }
        assert!(out.text.contains("Chair") && out.text.contains("Lamp"));
    }
}

#[test]
fn table8_uses_the_swapped_direction() {
    let out = table7or8_with(&mini(), 8);
    assert!(out.text.contains("SNS2 v. SNS1"));
    for rec in &out.records {
        assert_eq!(rec.dataset, "SNS2 v. SNS1");
    }
}

#[test]
fn records_serialise_to_json() {
    let out = table2_with(&mini());
    let json = serde_json::to_string(&out.records).expect("serialisable");
    assert!(json.contains("cumulative_accuracy"));
    assert!(json.contains("NYU v. SNS1"));
}
