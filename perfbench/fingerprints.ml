(* Simulated fingerprints recorded at the default seed, one per
   workload.  Host timing plays no part in them, so a change that claims
   to leave simulated behaviour alone must leave these alone.  Print the
   current one with

     main.exe --workload NAME --fingerprint *)

let default_seed = 1

let recorded =
  [
    ( "join-mru",
      "faults=30720 hipec=30720 pagein=30720 zerofill=0 pageins=30720 \
       evict=0 react=0 pgout=0 sync=30720 async=0 writes=0 busy=0 retries=0 \
       granted=0 rejected=0 throttles=0 seizures=0 demotions=0 commands=122880 \
       events=30720 sweeps=0 violations=0 admitted=1 shed=0 now=162488208956" );
    ( "paging-mix",
      "faults=49846 hipec=27847 pagein=40737 zerofill=9109 pageins=40737 \
       evict=18828 react=15523 pgout=9890 sync=73718 async=5946 writes=27035 \
       busy=195748256006 retries=0 granted=0 rejected=0 throttles=0 seizures=0 \
       demotions=0 commands=813002 events=29783 sweeps=0 violations=0 \
       admitted=3 shed=0 now=290129911455" );
    ( "tenant-storm",
      "faults=19920 hipec=7260 pagein=6144 zerofill=13776 pageins=6144 \
       evict=11049 react=0 pgout=6144 sync=14547 async=0 writes=8327 \
       busy=42732845318 retries=76 granted=175 rejected=0 throttles=173 \
       seizures=8 demotions=12 commands=207505 events=9804 sweeps=250 \
       violations=0 admitted=240 shed=60 now=79703678173" );
  ]

let check ~workload ~seed fingerprint =
  if seed <> default_seed then []
  else
    match List.assoc_opt workload recorded with
    | Some want when want = fingerprint -> []
    | Some want ->
        [ Printf.sprintf "fingerprint at the default seed differs from the recorded one: %s" want ]
    | None -> [ "no fingerprint recorded for " ^ workload ]
