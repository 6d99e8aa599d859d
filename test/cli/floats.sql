create table t (x float);
insert into t values (0.00001), (1.0e12), (0.1234567890123456), (2.5);
select x from t;
select x - 0.123456789012 as d from t where x > 0.1 and x < 1.0;
