(* Tests for qs_obs: registration idempotence, hot-path write semantics,
   quantile readout, shard-merge conservation (qcheck, through the real
   pool at several worker counts), span nesting, the clock shim, the
   registry-vs-legacy-stats pins, and the golden metrics snapshot.

   Updating the golden: after an intentional schema or counter change,
   dump the freshly masked snapshot with

     QS_OBS_GOLDEN_DUMP=1 dune exec -- test/test_obs.exe test golden

   and paste the block between the dump markers over the [golden] string
   below.  Review the diff first — key drift or count drift here means
   the exported schema changed for every consumer. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* Metric cells are registered at module initialization, and the linker
   only initializes modules this binary references.  Touch one value per
   instrumented module the tests below don't already use, so the golden
   snapshot pins the complete manifest, not the subset this suite happens
   to exercise. *)
let () =
  let force : 'a. 'a -> unit = fun _ -> () in
  force Hijack.is_captured;
  force Interception.run

let counter_value name =
  match Metrics.value name with
  | Some (Metrics.Counter_v n) -> n
  | _ -> Alcotest.fail ("no counter named " ^ name)

let hist_value name =
  match Metrics.value name with
  | Some (Metrics.Hist_v h) -> h
  | _ -> Alcotest.fail ("no histogram named " ^ name)

(* Unique test-reserved names: the registry is process-wide and append-only
   within a run, so every property iteration gets a fresh cell. *)
let fresh =
  let k = ref 0 in
  fun () ->
    incr k;
    Printf.sprintf "test.obs.%d" !k

(* ---- registration ----------------------------------------------------- *)

let test_registration_idempotent () =
  let name = fresh () in
  let a = Metrics.counter name in
  let b = Metrics.counter name in
  Metrics.incr a;
  Metrics.add b 2;
  check_int "both handles hit one cell" 3 (counter_value name);
  check_bool "registration count visible" true
    (List.mem_assoc name (Metrics.registrations ())
     && List.assoc name (Metrics.registrations ()) = 2)

let test_registration_kind_mismatch () =
  let name = fresh () in
  let _ = Metrics.counter name in
  let raised =
    try
      ignore (Metrics.gauge name);
      false
    with Invalid_argument _ -> true
  in
  check_bool "kind mismatch rejected" true raised;
  let hname = fresh () in
  let _ = Metrics.histogram ~buckets:[| 1.; 2. |] hname in
  let raised =
    try
      ignore (Metrics.histogram ~buckets:[| 1.; 3. |] hname);
      false
    with Invalid_argument _ -> true
  in
  check_bool "bucket mismatch rejected" true raised

let test_counter_rejects_negative () =
  let c = Metrics.counter (fresh ()) in
  let raised =
    try
      Metrics.add c (-1);
      false
    with Invalid_argument _ -> true
  in
  check_bool "counters are monotonic" true raised

let test_gauge_last_write_wins () =
  let name = fresh () in
  let g = Metrics.gauge name in
  check_bool "unset gauge reads None" true
    (Metrics.value name = Some (Metrics.Gauge_v None));
  Metrics.set g 3.;
  Metrics.set g 7.;
  check_bool "last write wins" true
    (Metrics.value name = Some (Metrics.Gauge_v (Some 7.)))

let test_disabled_writes_are_noops () =
  let name = fresh () in
  let c = Metrics.counter name in
  Metrics.set_enabled false;
  Metrics.incr c;
  Metrics.set_enabled true;
  check_int "disabled write dropped" 0 (counter_value name);
  Metrics.incr c;
  check_int "re-enabled write lands" 1 (counter_value name)

(* ---- histograms and quantiles ----------------------------------------- *)

let test_histogram_buckets_and_quantiles () =
  let name = fresh () in
  let h = Metrics.histogram ~buckets:[| 1.; 10.; 100. |] name in
  check_bool "empty quantile is 0" true (Metrics.quantile (hist_value name) 0.5 = 0.);
  List.iter (Metrics.observe h) [ 0.5; 0.5; 5.; 50.; 500. ];
  let v = hist_value name in
  check_int "count" 5 v.Metrics.count;
  check_bool "sum" true (v.Metrics.sum = 556.);
  check_bool "min" true (v.Metrics.min = 0.5);
  check_bool "max" true (v.Metrics.max = 500.);
  check_bool "bucket layout" true
    (v.Metrics.buckets = [| (1., 2); (10., 1); (100., 1); (infinity, 1) |]);
  (* cumulative bucket counts are 2/3/4/5, so q*5 observations land at
     bounds 1, 10, 100 as q crosses 0.4, 0.6, 0.8 *)
  check_bool "p25 in first bucket" true (Metrics.quantile v 0.25 = 1.);
  check_bool "p50 second bucket" true (Metrics.quantile v 0.5 = 10.);
  check_bool "p70 third bucket" true (Metrics.quantile v 0.7 = 100.);
  check_bool "overflow bucket reads the max" true (Metrics.quantile v 1.0 = 500.);
  let raised =
    try
      ignore (Metrics.quantile v 1.5);
      false
    with Invalid_argument _ -> true
  in
  check_bool "q outside [0,1] rejected" true raised

let test_reset_all () =
  let name = fresh () in
  let c = Metrics.counter name in
  Metrics.incr c;
  Metrics.reset_all ();
  check_int "reset zeroes" 0 (counter_value name);
  check_bool "registrations survive reset" true
    (List.mem_assoc name (Metrics.registrations ()));
  Metrics.incr c;
  check_int "handle still live" 1 (counter_value name)

(* ---- qcheck: shard-merge laws ----------------------------------------- *)

let bounds = [| 5.; 50.; 500. |]

let sum_ints xs = List.fold_left ( + ) 0 xs

let observe_via_pool pool h xs =
  ignore
    (Pool.map ~chunk:1 pool
       (fun x ->
          Metrics.observe h (float_of_int x);
          x)
       (Array.of_list xs))

let test_quantile_monotone () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"quantile monotone in q"
       QCheck.(triple
                 (list_of_size Gen.(1 -- 50) (int_bound 1000))
                 (int_bound 100) (int_bound 100))
       (fun (xs, a, b) ->
          let name = fresh () in
          let h = Metrics.histogram ~buckets:bounds name in
          List.iter (fun x -> Metrics.observe h (float_of_int x)) xs;
          let v = hist_value name in
          let q1 = float_of_int (min a b) /. 100. in
          let q2 = float_of_int (max a b) /. 100. in
          Metrics.quantile v q1 <= Metrics.quantile v q2))

(* A bucket's upper bound can lie above every sample in it (samples
   [0.5] under bounds [1.] would read p50 = 1): no quantile may report a
   value outside the observed [min, max]. *)
let test_quantile_within_range () =
  let name = fresh () in
  let h = Metrics.histogram ~buckets:[| 1. |] name in
  Metrics.observe h 0.5;
  check_bool "single sample reads itself" true
    (Metrics.quantile (hist_value name) 0.5 = 0.5);
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"quantile within [min, max]"
       QCheck.(pair
                 (list_of_size Gen.(1 -- 50) (int_bound 1000))
                 (int_bound 100))
       (fun (xs, a) ->
          let name = fresh () in
          let h = Metrics.histogram ~buckets:bounds name in
          List.iter (fun x -> Metrics.observe h (float_of_int x)) xs;
          let v = hist_value name in
          let q = Metrics.quantile v (float_of_int a /. 100.) in
          v.Metrics.min <= q && q <= v.Metrics.max))

let test_merge_conserves_observations () =
  Pool.with_pool ~jobs:4 (fun pool ->
      QCheck.Test.check_exn
        (QCheck.Test.make ~count:25
           ~name:"shard merge conserves count and integer sums"
           QCheck.(list_of_size Gen.(1 -- 100) (int_bound 500))
           (fun xs ->
              let name = fresh () in
              let h = Metrics.histogram ~buckets:bounds name in
              observe_via_pool pool h xs;
              let v = hist_value name in
              v.Metrics.count = List.length xs
              && v.Metrics.sum = float_of_int (sum_ints xs)
              && Array.fold_left (fun acc (_, n) -> acc + n) 0 v.Metrics.buckets
                 = List.length xs)))

let test_merge_commutes_across_jobs () =
  Pool.with_pool ~jobs:4 (fun wide ->
      QCheck.Test.check_exn
        (QCheck.Test.make ~count:25
           ~name:"merged view identical at jobs=1 and jobs=4"
           QCheck.(list_of_size Gen.(1 -- 100) (int_bound 500))
           (fun xs ->
              let n1 = fresh () and n4 = fresh () in
              let h1 = Metrics.histogram ~buckets:bounds n1 in
              let h4 = Metrics.histogram ~buckets:bounds n4 in
              Pool.with_pool ~jobs:1 (fun narrow ->
                  observe_via_pool narrow h1 xs);
              observe_via_pool wide h4 xs;
              (* integer-valued observations: sums are order-independent,
                 so the whole view must match structurally *)
              hist_value n1 = hist_value n4)))

(* ---- spans ------------------------------------------------------------ *)

let test_span_disabled_passthrough () =
  Span.set_enabled false;
  ignore (Span.drain ());
  check_int "passthrough result" 9 (Span.with_ ~name:"off" (fun () -> 9));
  check_int "nothing recorded" 0 (List.length (Span.drain ()))

let test_span_nesting () =
  ignore (Span.drain ());
  Span.set_enabled true;
  let spans =
    Fun.protect
      ~finally:(fun () -> Span.set_enabled false)
      (fun () ->
         Clock.with_source (fun () -> 0.) (fun () ->
             Span.with_ ~name:"outer" (fun () ->
                 Span.with_ ~name:"inner" (fun () -> ())));
         Span.drain ())
  in
  match spans with
  | [ inner; outer ] ->
      (* completion order: a parent follows its children *)
      check_str "inner path" "outer/inner" inner.Span.path;
      check_int "inner depth" 2 inner.Span.depth;
      check_str "outer path" "outer" outer.Span.path;
      check_int "outer depth" 1 outer.Span.depth;
      check_bool "frozen clock yields zero durations" true
        (inner.Span.dur = 0. && outer.Span.dur = 0.);
      check_int "drain clears" 0 (List.length (Span.drain ()))
  | l -> Alcotest.fail (Printf.sprintf "expected 2 spans, got %d" (List.length l))

let test_span_records_on_raise () =
  ignore (Span.drain ());
  Span.set_enabled true;
  let raised =
    Fun.protect
      ~finally:(fun () -> Span.set_enabled false)
      (fun () ->
         try
           Span.with_ ~name:"boom" (fun () ->
               if true then failwith "boom");
           false
         with Failure _ -> true)
  in
  check_bool "exception re-raised" true raised;
  match Span.drain () with
  | [ s ] -> check_str "span recorded anyway" "boom" s.Span.name
  | l -> Alcotest.fail (Printf.sprintf "expected 1 span, got %d" (List.length l))

let test_clock_substitution () =
  let frozen = Clock.with_source (fun () -> 42.) (fun () -> Clock.now ()) in
  Alcotest.(check (float 0.)) "substituted source" 42. frozen;
  check_bool "real clock restored" true (Clock.now () > 1e9)

(* ---- registry vs legacy stats ----------------------------------------- *)

let short_dynamics =
  { Dynamics.short_config with Dynamics.duration = 6. *. 3600. }

let test_registry_matches_legacy_stats () =
  Metrics.reset_all ();
  let s = Scenario.build ~seed:3 Scenario.Small in
  let m = Measurement.run ~dynamics:short_dynamics s in
  let d = m.Measurement.dyn_stats in
  check_int "dynamics.updates_emitted pins the stream size"
    d.Dynamics.updates_emitted
    (counter_value "dynamics.updates_emitted");
  check_int "dynamics.full_recomputations pins full recomputes"
    d.Dynamics.full_recomputations
    (counter_value "dynamics.full_recomputations");
  check_int "dynamics.delta_steps pins delta steps" d.Dynamics.delta_steps
    (counter_value "dynamics.delta_steps");
  match m.Measurement.filter_stats with
  | None -> Alcotest.fail "session-reset filter expected on by default"
  | Some f ->
      check_int "session_reset.pushed pins pushed" f.Session_reset.pushed
        (counter_value "session_reset.pushed");
      check_int "pushed = passed + dropped + buffered"
        (counter_value "session_reset.pushed")
        (counter_value "session_reset.passed"
         + counter_value "session_reset.dropped"
         + f.Session_reset.buffered);
      check_int "session_reset.pushed equals dynamics.updates_emitted"
        (counter_value "dynamics.updates_emitted")
        (counter_value "session_reset.pushed")

(* ---- golden metrics snapshot ------------------------------------------ *)

let index_of ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i =
    if i + n > h then None
    else if String.sub hay i n = needle then Some i
    else go (i + 1)
  in
  go 0

let contains ~needle hay = index_of ~needle hay <> None

(* Erase exactly the fields the export contract marks as timing-derived
   or scheduling-derived: the "timing"/"buckets" groups of a histogram
   (wall-clock) and the exec.jobs / exec.chunks values (worker-count
   dependent by the pool's chunking contract).  Everything else — key
   set, counter values, histogram counts — must be byte-stable. *)
let mask_line line =
  let len = String.length line in
  let trail = if len > 0 && line.[len - 1] = ',' then "," else "" in
  match index_of ~needle:"\"timing\"" line with
  | Some i -> String.sub line 0 i ^ "<timing and buckets masked>" ^ trail
  | None ->
      if contains ~needle:"\"exec.jobs\"" line
         || contains ~needle:"\"exec.chunks\"" line
      then
        match index_of ~needle:": " line with
        | Some i -> String.sub line 0 (i + 2) ^ "<jobs-dependent>" ^ trail
        | None -> line
      else line

let mask doc =
  String.split_on_char '\n' doc |> List.map mask_line |> String.concat "\n"

let masked_snapshot ~jobs =
  Clock.with_source (fun () -> 0.) (fun () ->
      Metrics.reset_all ();
      let s = Scenario.build ~seed:1 Scenario.Small in
      let m = Measurement.run ~dynamics:short_dynamics s in
      Pool.with_pool ~jobs (fun exec -> ignore (Path_changes.compute ~exec m));
      (* test.* cells from the property tests above live in the same
         process-wide registry; drop them so the golden pins only the
         shipped schema. *)
      let shipped =
        List.filter
          (fun (smp : Metrics.sample) ->
             not (String.length smp.Metrics.name >= 5
                  && String.sub smp.Metrics.name 0 5 = "test."))
          (Metrics.snapshot ())
      in
      mask (Export.metrics_json_string shipped))

let golden = {gold|{
"schema": "qs-obs/1",
"counters": {
  "attack.hijack.runs": 0,
  "attack.interception.runs": 0,
  "churn.trace_entities": 0,
  "churn.trace_events": 0,
  "dynamics.announces": 21636,
  "dynamics.churn_events": 883,
  "dynamics.delta_steps": 10962,
  "dynamics.delta_stop_early": 23372,
  "dynamics.full_recomputations": 220,
  "dynamics.post_horizon_dropped": 1,
  "dynamics.updates_emitted": 28664,
  "dynamics.withdraws": 7028,
  "exec.chunks": <jobs-dependent>,
  "exec.sweeps": 1,
  "measurement.cells": 3985,
  "measurement.updates": 26678,
  "obs.spans": 0,
  "scenario.builds": 1,
  "session_reset.bursts": 7,
  "session_reset.dropped": 1986,
  "session_reset.passed": 26678,
  "session_reset.pushed": 28664
},
"gauges": {
  "exec.jobs": <jobs-dependent>
},
"histograms": {
  "dynamics.delta_frontier": {"count": 10962, <timing and buckets masked>,
  "exec.busy_seconds": {"count": 1, <timing and buckets masked>,
  "exec.sweep_seconds": {"count": 1, <timing and buckets masked>,
  "exec.wait_seconds": {"count": 1, <timing and buckets masked>
}
}
|gold}

let test_golden_snapshot () =
  let m1 = masked_snapshot ~jobs:1 in
  let m4 = masked_snapshot ~jobs:4 in
  if Sys.getenv_opt "QS_OBS_GOLDEN_DUMP" <> None then
    Format.eprintf "----- masked snapshot (paste over [golden]) -----@.%s@.----- end masked snapshot -----@." m1;
  check_str "masked snapshot byte-identical at jobs=1 and jobs=4" m1 m4;
  check_str "masked snapshot matches the embedded golden" golden m1

let () =
  Alcotest.run "qs_obs"
    [ ("registry",
       [ Alcotest.test_case "registration idempotent" `Quick
           test_registration_idempotent;
         Alcotest.test_case "kind mismatch rejected" `Quick
           test_registration_kind_mismatch;
         Alcotest.test_case "counters monotonic" `Quick
           test_counter_rejects_negative;
         Alcotest.test_case "gauge last write wins" `Quick
           test_gauge_last_write_wins;
         Alcotest.test_case "disabled writes are no-ops" `Quick
           test_disabled_writes_are_noops;
         Alcotest.test_case "buckets and quantiles" `Quick
           test_histogram_buckets_and_quantiles;
         Alcotest.test_case "reset_all" `Quick test_reset_all ]);
      ("laws",
       [ Alcotest.test_case "quantile monotone" `Quick test_quantile_monotone;
         Alcotest.test_case "quantile within min/max" `Quick
           test_quantile_within_range;
         Alcotest.test_case "merge conserves observations" `Quick
           test_merge_conserves_observations;
         Alcotest.test_case "merge commutes across jobs" `Quick
           test_merge_commutes_across_jobs ]);
      ("spans",
       [ Alcotest.test_case "disabled passthrough" `Quick
           test_span_disabled_passthrough;
         Alcotest.test_case "nesting and paths" `Quick test_span_nesting;
         Alcotest.test_case "recorded on raise" `Quick
           test_span_records_on_raise;
         Alcotest.test_case "clock substitution" `Quick
           test_clock_substitution ]);
      ("legacy",
       [ Alcotest.test_case "registry pins legacy stats" `Quick
           test_registry_matches_legacy_stats ]);
      ("golden",
       [ Alcotest.test_case "masked snapshot" `Quick test_golden_snapshot ]) ]
