let metric_registry_mismatch =
  { Diag.code = "QS306"; slug = "metric-registry-mismatch";
    severity = Diag.Error;
    doc = "a registry metric name is not in Qs_obs.Manifest, is declared \
           but never registered, or was registered more than once";
    explain =
      "Qs_obs.Manifest is the declared telemetry schema and the live \
       registry is what the code actually registered; dashboards and \
       golden tests key on the manifest, so the two must match exactly. \
       An undeclared metric is invisible to consumers, a declared-but- \
       never-registered one makes exports silently incomplete, and a \
       double registration usually means two modules claimed the same \
       name and their counts are now merged. Names under test. are \
       exempt." }

let rules = [ metric_registry_mismatch ]

(* Instrumented modules register their metrics at module initialization,
   and the linker only initializes modules that some binary actually
   references.  Touching one value per instrumented module here makes
   linking qs_lint sufficient to populate the registry, so QS306 sees
   the same registration set in every binary. *)
let () =
  let force : 'a. 'a -> unit = fun _ -> () in
  force Pool.jobs;
  force Session_reset.default_config;
  force Churn.pareto_day;
  force Consensus_dynamics.default_params;
  force Dynamics.default_config;
  force Hijack.is_captured;
  force Interception.run;
  force Measurement.changes_of;
  force Scenario.sessions;
  force Static_surface.create;
  force Sweep_run.table_string;
  force Span.enabled

let exempt name = String.length name >= 5 && String.sub name 0 5 = "test."

let check ?(manifest = Manifest.names) registrations =
  let declared = List.sort_uniq String.compare manifest in
  let unregistered =
    List.filter
      (fun name -> not (List.mem_assoc name registrations))
      declared
    |> List.map (fun name ->
        Diag.msgf metric_registry_mismatch
          ~context:[ ("metric", name); ("problem", "never-registered") ]
          "manifest metric %s was never registered" name)
  in
  let findings =
    registrations
    |> List.concat_map (fun (name, regs) ->
        if exempt name then []
        else begin
          let undeclared =
            if List.mem name declared then []
            else
              [ Diag.msgf metric_registry_mismatch
                  ~context:[ ("metric", name); ("problem", "undeclared") ]
                  "metric %s is registered but missing from Qs_obs.Manifest"
                  name ]
          in
          let duplicated =
            if regs <= 1 then []
            else
              [ Diag.msgf metric_registry_mismatch
                  ~context:
                    [ ("metric", name); ("problem", "duplicate");
                      ("registrations", string_of_int regs) ]
                  "metric %s was registered %d times" name regs ]
          in
          undeclared @ duplicated
        end)
  in
  findings @ unregistered
